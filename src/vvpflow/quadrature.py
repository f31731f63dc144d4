"""Gauss quadrature on the reference triangle {(0,0), (1,0), (0,1)}.

Every rule is invariant under the six vertex permutations of the triangle,
has positive weights summing to the reference area 1/2 and interior
points.  Degrees 6, 8 and 9 use fitted table rules of 12, 16 and 19
points; every other degree is a conical product of Gauss-Legendre and
Gauss-Jacobi lines (exact by construction), symmetrised.
:class:`CellQuadrature` maps a rule onto every cell of a mesh; its
``integrate`` is the one loop over cells of the norms and integrals, and it
groups the cells into the affine classes whose physical basis tables the
assembly shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh, geometry_arrays
from .spaces import eval_field, tabulate

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


#: Table rules, fitted by ``tests/symmetric_rules.py``.  Per degree: the
#: centroid weight (or None), S21 orbits (w, a) of the barycentric points
#: (a, a, 1-2a) and S111 orbits (w, a, b) of (a, b, 1-a-b); w per point.
_SYMMETRIC = {
    6: (None, ((0.08566656207649287, 0.2194299825497825), (0.0403655447965139, 0.48013796411221765)),
        ((0.020317279896829944, 0.01937172436124135, 0.14161901592396578),)),
    8: (0.07215780383886254, ((0.01622924881160083, 0.050547228317031206), (0.05160868526735705, 0.17056930775171963),
                              (0.047545817133662106, 0.45929258829268366)),
        ((0.013615157087212917, 0.008394777409914678, 0.2631128296347523),)),
    9: (0.04856789814294913, ((0.012788837829320802, 0.04472951339440362), (0.03982386946362754, 0.1882035356196183),
                              (0.03891377050295231, 0.43708959149511023), (0.01566735011228034, 0.48968251920015615)),
        ((0.021641769688751318, 0.0368384120549751, 0.2219629891604772),)),
}


def _orbits(centroid, s21, s111):
    orbits = [(centroid, [(1 / 3, 1 / 3, 1 / 3)])] if centroid is not None else []
    orbits += [(w, [(a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)]) for w, a in s21]
    orbits += [(w, list(permutations((a, b, 1 - a - b)))) for w, a, b in s111]
    lam = np.array([point for _, points in orbits for point in points])
    return lam[:, 1:].copy(), np.array([w for w, points in orbits for _ in points])


@lru_cache(maxsize=None, typed=True)  # typed: 6.0 and True reach the check below, not the rules of 6 and 1
def quadrature(degree: int) -> QuadratureRule:
    """Symmetric rule integrating total degree ``degree`` exactly: the table
    rule of 12, 16 or 19 points at degree 6, 8 or 9, else the conical one."""
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)):  # a bool is an int, but no degree
        raise ValueError(f"quadrature degree must be an integer, got {degree!r}")
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(f"quadrature degree {degree} exceeds supported maximum {MAX_DEGREE}")
    if degree in _SYMMETRIC:
        points, weights = _orbits(*_SYMMETRIC[degree])
    else:
        points, weights = _symmetrise(*_conical_rule(max(degree, 1)))
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, degree=int(degree))


@lru_cache(maxsize=1024)
def _einsum_path(subscripts: str, *shapes) -> tuple:
    return tuple(np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes), optimize=True)[0])


def _contract(subscripts: str, *operands) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=True)``, with its
    contraction path searched once per subscripts and operand shapes
    instead of on every call; the same path gives the same floats."""
    return np.einsum(subscripts, *operands, optimize=_einsum_path(subscripts, *(op.shape for op in operands)))


def physical_points(rule: QuadratureRule, jac: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """The rule's points mapped by every cell's ``jac`` (nc, 2, 2) and ``origin`` (nc, 2): (nc, npts, 2)."""
    return origin[:, None, :] + _contract("cij,qj->cqi", jac, rule.points)


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
            part = slice(c0, c0 + CHUNK)  # views of the per-cell arrays; the indices for the DOF maps
            wdet = self.rule.weights[None, :] * self.det[part, None]
            xq = physical_points(self.rule, self.jac[part], mesh.vertices[mesh.cells[part, 0]])
            yield np.arange(c0, min(c0 + CHUNK, mesh.n_cells)), wdet, xq, self.inv[part]

    def classes(self, dirs: np.ndarray | None = None):
        """``(first, label)``: the first cell of each affine class and the
        class of every cell.  Cells share a class when their inverse
        Jacobians and determinants are equal, and their rows of ``dirs``, if
        given: a vector basis's directions, one row per cell (nc, nb, 2)."""
        nc = self.mesh.n_cells
        key = [self.inv.reshape(nc, 4), self.det[:, None]]
        if dirs is not None:  # a row count other than nc fails to stack
            key.append(dirs.reshape(len(dirs), -1))
        key = np.hstack(key)
        key = key[:, (key != key[0]).any(axis=0)]  # a constant column tells no two cells apart
        _, first, label = np.unique(key, axis=0, return_index=True, return_inverse=True)
        return first, label.reshape(nc)

    def integrate(self, *densities) -> list[float]:
        """The integral of each density, summed in chunk order over one pass.  A density maps a chunk's
        ``at`` to values (nc, npts): ``at(fn)`` samples a point function ``fn(x, y)``, ``at(field)`` a discrete
        field and ``at(field, True)`` its values and gradients, each once per chunk and space per pass."""
        tabs, sums = {}, [0.0] * len(densities)
        for cells, wdet, xq, inv in self.chunks():

            @cache
            def at(f, grad=False):
                if callable(f):
                    return np.asarray(f(xq[..., 0], xq[..., 1]), dtype=float)
                if f.space.mesh is not self.mesh:
                    raise ValueError("the fields of one pass over the cells must live on one mesh")
                tabs[f.space] = tabs.get(f.space) or tabulate(f.space, self.rule.points)
                return eval_field(f, tabs[f.space], cells, inv, grad)

            sums = [s + float(np.einsum("cq,cq->", wdet, density(at))) for s, density in zip(sums, densities)]
        return sums
