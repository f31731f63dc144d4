"""Fill-reducing orderings for the saddle-point factorisation.

Geometric nested dissection (George, SINUM 10, 1973): split the DOF cloud
at the median of its widest coordinate axis, peel off the thinner of the
cut's two boundary layers (one side's DOFs with neighbours across; the
left's on a tie) as the vertex separator, its side becoming the core, order
it after both halves and split the halves again, down to parts of at most
LEAF DOFs.  Where the median falls on a row of P2 or Bernardi-Raugel edge
DOFs, one layer is two mesh lines thick.  The sweep starts in point order
(x, y, index), so the DOFs of a support point sit together in every leaf
and separator and SuperLU forms wider supernodes.  On 2D meshes this keeps
LU fill near the O(n log n) optimum, which column orderings miss badly.

It runs as a level sweep: all parts of one depth split together in
whole-array operations, each part a contiguous segment of one array of
live DOFs.  No edge joins two live parts, so one product of the adjacency
with a side vector (1 on the right, 1 << shift on the left) counts each
DOF's neighbours across in the low or the high field, each wide enough for
the largest live row.  Every stored entry of the pattern is an edge,
whatever its value, held as a one of the vector's type (no product casts);
the pattern must be structurally symmetric, as every assembled one is.
A part orders its core, then its other side, then its separator.

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


def nested_dissection(pattern, coords: np.ndarray, last: np.ndarray | None = None, first=()) -> np.ndarray:
    """Permutation (old indices in elimination order) for the graph of the
    structurally symmetric ``pattern``: its ``indptr``, ``indices`` and ``shape``.

    ``coords``: (n, 2) DOF positions guiding the bisection; ``last``:
    indices forced to the end of the ordering (dense rows); ``first``:
    indices moved to the front, in their given order.
    """
    n = pattern.shape[0]
    last = np.zeros(0, dtype=np.int64) if last is None else np.asarray(last, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    live[last] = False
    degree = np.diff(pattern.indptr)[live].max(initial=0)
    shift = next(s for s in (8, 16, 32) if degree < 1 << (s - 1))  # a live DOF's counts keep to their fields
    ones = np.ones(len(pattern.indices), dtype=f"i{shift // 4}")  # the side vector's type: the products cast nothing
    adj = sp.csr_matrix((ones, pattern.indices, pattern.indptr), shape=pattern.shape)
    ids = np.flatnonzero(live)
    ids = ids[np.lexsort(coords.take(ids, axis=0).T[::-1])]  # point order: DOFs of one support point adjacent
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
        side = np.zeros(n, dtype=adj.dtype)
        side[ids] = np.where(left, 1 << shift, 1)  # counts neighbours on the right, and << shift those on the left
        touch = (adj @ side)[ids]
        layer = np.where(left, touch & ((1 << shift) - 1), touch >> shift) > 0  # DOFs with neighbours across
        left ^= (np.add.reduceat(layer & ~left, start) < np.add.reduceat(layer & left, start))[part]  # thinner side
        sep = left & layer
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
