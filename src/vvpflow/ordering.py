"""Fill-reducing orderings for the saddle-point factorisation.

Geometric nested dissection: recursively split the DOF cloud at the
median of its widest coordinate axis, peel off the vertex separator
(left-side DOFs with neighbours across the cut) and order it after both
halves.  On 2D meshes this keeps LU fill near the O(n log n) optimum,
which the default column orderings miss badly for saddle systems.  Any
globally coupled rows (the pressure-mean multiplier) must be placed
last by the caller.  Unknowns that couple only inside their own cell can
be put first, to be condensed out before the factorisation; the others
keep their place in the dissection of the whole graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

LEAF = 64


def dof_support_centroids(n_dofs: int, cell_dofs: np.ndarray, cell_centroids: np.ndarray) -> np.ndarray:
    """Mean centroid of the cells supporting each DOF (any element family)."""
    coords = np.zeros((n_dofs, 2))
    counts = np.zeros(n_dofs)
    for k in range(cell_dofs.shape[1]):
        np.add.at(coords, cell_dofs[:, k], cell_centroids)
        np.add.at(counts, cell_dofs[:, k], 1.0)
    return coords / counts[:, None]


def nested_dissection(matrix: sp.spmatrix, coords: np.ndarray, last: np.ndarray | None = None, first=()) -> np.ndarray:
    """Permutation (old indices in elimination order) for ``matrix``.

    ``coords``: (n, 2) DOF positions guiding the bisection; ``last``:
    indices forced to the end of the ordering (dense rows); ``first``:
    indices moved to the front, in their given order.
    """
    n = matrix.shape[0]
    structure = matrix.tocsr().astype(bool)
    adj = (structure + structure.T).astype(np.int8).tocsr()
    order: list[np.ndarray] = []

    def recurse(ids: np.ndarray, sub: sp.csr_matrix, xy: np.ndarray):
        if len(ids) <= LEAF:
            order.append(ids)
            return
        axis = int(np.argmax(xy.max(axis=0) - xy.min(axis=0)))
        med = np.median(xy[:, axis])
        left = xy[:, axis] <= med
        if left.all() or not left.any():
            left = np.zeros(len(ids), dtype=bool)
            left[np.argsort(xy[:, axis], kind="stable")[: len(ids) // 2]] = True
        right = ~left
        touch = sub @ right.astype(np.int8)
        sep = left & (touch > 0)
        core = left & ~sep
        for part in (core, right):
            if part.any():
                keep = np.nonzero(part)[0]
                recurse(ids[keep], sub[keep][:, keep].tocsr(), xy[keep])
        if sep.any():
            order.append(ids[np.nonzero(sep)[0]])

    ids = np.arange(n)
    if last is not None and len(last):
        mask = np.ones(n, dtype=bool)
        mask[last] = False
        ids = ids[mask]
    recurse(ids, adj[ids][:, ids].tocsr(), coords[ids])
    if last is not None and len(last):
        order.append(np.asarray(last, dtype=np.int64))
    order, first = np.concatenate(order), np.asarray(first, dtype=np.int64).ravel()
    moved = np.zeros(n, dtype=bool)
    moved[first] = True
    return np.concatenate([first, order[~moved[order]]])
