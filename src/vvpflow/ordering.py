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
neighbour by construction, and separators retire), so one boolean product
of the adjacency with the indicator of the right sides finds every
separator of the level.  The adjacency is the input's stored pattern
flagging its nonzeros, each flag joined in place with its mirror's where
the pattern is its own transpose (every assembled system's is), else each
level also multiplies by the transposed view: no symmetric copy is built.
A part orders its core, then its right side, then its separator, so a
DOF's position is known when it retires as a leaf or a separator.

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
    """Mean centroid of the cells supporting each DOF (any element family), summed column by column."""
    dofs, k = cell_dofs.T.ravel(), cell_dofs.shape[1]
    coords = np.column_stack([np.bincount(dofs, np.tile(c, k), n_dofs) for c in cell_centroids.T])
    return coords / np.bincount(dofs, minlength=n_dofs)[:, None]


def nested_dissection(matrix: sp.spmatrix, coords: np.ndarray, last: np.ndarray | None = None, first=()) -> np.ndarray:
    """Permutation (old indices in elimination order) for ``matrix``.

    ``coords``: (n, 2) DOF positions guiding the bisection; ``last``:
    indices forced to the end of the ordering (dense rows); ``first``:
    indices moved to the front, in their given order.
    """
    n, a = matrix.shape[0], matrix.tocsr()
    adj = sp.csr_matrix((a.data != 0, a.indices, a.indptr), shape=a.shape)  # boolean products: any neighbour
    mirror = adj.T.tocsr()
    np.subtract(mirror.indices, a.indices, out=mirror.indices)  # compared in place: no temporary
    symmetric = np.array_equal(mirror.indptr, a.indptr) and not mirror.indices.any()
    if symmetric:  # each entry's mirror is at its place: one product per level
        adj.data |= mirror.data
    del mirror
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
        right = np.zeros(n, dtype=bool)
        right[ids[~left]] = True
        sep = left & (adj @ right if symmetric else (adj @ right) | (adj.T @ right))[ids]
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
