"""Gauss quadrature on the reference triangle {(0,0), (1,0), (0,1)}.

Rules are built as conical products of Gauss-Legendre and Gauss-Jacobi
lines (exact by construction for any requested degree, all weights
positive) and then symmetrised over the six vertex permutations of the
triangle.  Weights sum to the reference area 1/2.  :class:`CellQuadrature`
maps a rule onto every cell of a mesh; its chunks are the one loop over
cells of the norms and integrals, and it groups the cells into the affine
classes whose physical basis tables the assembly shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh, geometry_arrays

MAX_DEGREE = 30
CHUNK = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates), weights, and exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - 0.5) > 1e-13:
            raise ValueError("quadrature weights must sum to 1/2")

    def __len__(self):
        return len(self.weights)


def _conical_rule(degree: int):
    m = degree // 2 + 1
    # Legendre line for the collapsed coordinate, Jacobi (1-x) line for
    # the radial one; both mapped from [-1, 1] to [0, 1].
    xg, wg = np.polynomial.legendre.leggauss(m)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xj = 0.5 * (xj + 1.0)
    wj = 0.25 * wj

    xi = np.repeat(xj, m)
    eta = np.tile(xg, m) * (1.0 - xi)
    w = np.repeat(wj, m) * np.tile(wg, m)
    return np.column_stack([xi, eta]), w


def _symmetrise(points: np.ndarray, weights: np.ndarray):
    lam = np.column_stack([1.0 - points[:, 0] - points[:, 1], points[:, 0], points[:, 1]])
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    all_lam = np.concatenate([lam[:, p] for p in perms])
    all_w = np.tile(weights / 6.0, 6)
    # permutations reorder identical floats, so duplicates are bitwise equal
    uniq, inverse = np.unique(all_lam, axis=0, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse, all_w)
    return uniq[:, 1:].copy(), merged


@lru_cache(maxsize=None)
def quadrature(degree: int) -> QuadratureRule:
    """Symmetric rule integrating total degree ``degree`` exactly."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(
            f"quadrature degree {degree} exceeds supported maximum {MAX_DEGREE}"
        )
    points, weights = _symmetrise(*_conical_rule(max(degree, 1)))
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, degree=degree)


def physical_points(rule: QuadratureRule, jac: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Map reference points to physical coordinates, batched over cells.

    ``jac``: (nc, 2, 2), ``origin``: (nc, 2); returns (nc, npts, 2).
    """
    return origin[:, None, :] + np.einsum("cij,qj->cqi", jac, rule.points, optimize=True)


def groups(labels: np.ndarray):
    """The distinct labels, ascending, and for each the positions where it
    occurs, in increasing order."""
    order = np.argsort(labels, kind="stable")
    distinct, start = np.unique(labels[order], return_index=True)
    return distinct, np.split(order, start[1:])


class CellQuadrature:
    """A quadrature rule of ``degree`` mapped onto every cell of ``mesh``.

    ``chunks`` visits the cells in order, CHUNK at a time, which bounds the
    size of the per-chunk work arrays.  ``classes`` labels the affine cell
    classes: on an affine mesh a cell's physical basis depends on the cell
    only through its inverse Jacobian and determinant (and the directions
    of a vector basis), so one table per class serves all of its cells.
    A structured mesh of uniform spacing has two classes, the lower and
    the upper triangles.
    """

    def __init__(self, mesh: Mesh, degree: int):
        self.mesh = mesh
        self.rule = quadrature(degree)
        self.jac, self.inv, self.det = geometry_arrays(mesh)

    def chunks(self):
        """Yield ``(cells, wdet, xq, inv)`` per chunk: cell indices, weights
        times cell areas (nc, npts), physical points (nc, npts, 2) and the
        inverse Jacobians (nc, 2, 2)."""
        mesh = self.mesh
        for c0 in range(0, mesh.n_cells, CHUNK):
            cells = np.arange(c0, min(c0 + CHUNK, mesh.n_cells))
            wdet = self.rule.weights[None, :] * self.det[cells, None]
            xq = physical_points(self.rule, self.jac[cells], mesh.vertices[mesh.cells[cells, 0]])
            yield cells, wdet, xq, self.inv[cells]

    def classes(self, dirs: np.ndarray | None = None):
        """``(first, label)``: the first cell of each affine class and the
        class of every cell.  Cells share a class when their inverse
        Jacobians and determinants are equal, and also the rows of ``dirs``
        when it holds per-cell basis directions (nc, nb, 2)."""
        nc = self.mesh.n_cells
        key = [self.inv.reshape(nc, 4), self.det[:, None]]
        if dirs is not None and len(dirs) == nc:
            key.append(dirs.reshape(nc, -1))
        _, first, label = np.unique(np.hstack(key), axis=0, return_index=True, return_inverse=True)
        return first, label.reshape(nc)

    def integrate(self, integrand) -> float:
        """Sum of ``integrand(cells, wdet, xq, inv)`` over the chunks."""
        return sum(float(integrand(*chunk)) for chunk in self.chunks())
