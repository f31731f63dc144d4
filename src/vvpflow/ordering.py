"""Fill-reducing orderings for the saddle-point factorisation.

Geometric nested dissection (George, SINUM 10, 1973): split the DOF cloud
at the median of its widest coordinate axis, peel off the vertex
separator (left-side DOFs with neighbours across the cut), order it after
both halves and split the halves again, down to parts of at most LEAF
DOFs.  On 2D meshes this keeps LU fill near the O(n log n) optimum,
which the default column orderings miss badly for saddle systems.

It runs as a level sweep: all parts of one depth split together in
whole-array operations, each part a contiguous segment of one array of
live DOFs.  No edge joins two live parts (a core has no right-side
neighbour by construction, and separators retire), so one product of the
whole adjacency with the indicator of the right sides finds every
separator of the level.  A part orders its core, then its right side,
then its separator, so a DOF's position is known when it retires as a
leaf or a separator.

Any globally coupled rows (the pressure-mean multiplier) must be placed
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
    adj = (structure + structure.T).tocsr()
    adj = adj.astype(adj.indices.dtype)  # neighbour counts stay below nnz, which this dtype holds: no wrap
    last = np.zeros(0, dtype=np.int64) if last is None else np.asarray(last, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    live[last] = False
    ids = np.flatnonzero(live)
    size, offset = np.array([len(ids)]), np.zeros(1, dtype=np.int64)  # per part: its length, its first position
    position = np.empty(n, dtype=np.int64)
    while len(ids):
        part = np.repeat(np.arange(len(size)), size)
        rank = np.arange(len(ids)) - np.repeat(np.cumsum(size) - size, size)  # place inside the part
        leaf = (size <= LEAF)[part]
        position[ids[leaf]] = offset[part[leaf]] + rank[leaf]
        ids, size, offset = ids[~leaf], size[size > LEAF], offset[size > LEAF]
        if not len(ids):
            break
        part, start = np.repeat(np.arange(len(size)), size), np.cumsum(size) - size
        xy = coords.take(ids, axis=0)
        extent = np.maximum.reduceat(xy, start) - np.minimum.reduceat(xy, start)
        v = np.where(np.argmax(extent, axis=1)[part] == 0, xy[:, 0], xy[:, 1])
        order = np.lexsort((v, part))  # stable: ties keep their place in the part
        sv, mid = v[order], start + size // 2
        median = np.where(size % 2, sv[mid], (sv[mid - 1] + sv[mid]) / 2)
        left = v <= median[part]
        n_left = np.add.reduceat(left, start)
        halve = ((n_left == 0) | (n_left == size))[part]
        if halve.any():  # the first half in (coordinate, place) order
            rank = np.empty(len(ids), dtype=np.int64)
            rank[order] = np.arange(len(ids)) - start[part]
            left[halve] = rank[halve] < (size // 2)[part[halve]]
        right = np.zeros(n, dtype=adj.dtype)
        right[ids[~left]] = 1
        sep = left & ((adj @ right)[ids] > 0)
        n_core, n_right = np.add.reduceat(left & ~sep, start), np.add.reduceat(~left, start)
        seen = np.cumsum(sep)
        position[ids[sep]] = (offset + n_core + n_right - (seen - sep)[start])[part[sep]] + seen[sep] - 1
        keep = ~sep
        ids = ids[keep][np.argsort(2 * part[keep] + ~left[keep], kind="stable")]  # core, then right side
        size, offset = np.column_stack([n_core, n_right]).ravel(), np.column_stack([offset, offset + n_core]).ravel()
        size, offset = size[size > 0], offset[size > 0]
    perm = np.empty(n, dtype=np.int64)
    perm[position[live]] = np.flatnonzero(live)
    perm[n - len(last):] = last
    first = np.asarray(first, dtype=np.int64).ravel()
    moved = np.zeros(n, dtype=bool)
    moved[first] = True
    return np.concatenate([first, perm[~moved[perm]]])
