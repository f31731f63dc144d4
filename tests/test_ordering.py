"""The level-sweep nested dissection against a recursive dissection kept
here as the reference: from the DOFs in point order, each split cuts at
the median and takes the smaller one-sided boundary layer as separator
(the left one on a tie).  The permutations must be equal element for
element, on assembled systems and on random graphs.  Both read a pattern's
graph: every stored entry is an edge, whatever its value."""

import numpy as np
import pytest
import scipy.sparse as sp

import vvpflow.assembly
from test_cell_classes import perturbed_mesh
from vvpflow.assembly import SystemAssembler
from vvpflow.mesh import build_structured
from vvpflow.ordering import LEAF, dof_support_centroids, nested_dissection
from vvpflow.solver import solve_newton
from vvpflow.spaces import method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d

STACKS = [("taylor-hood", "dg1"), ("mini", "cg1"), ("mini", "dg1"), ("bernardi-raugel", "dg0")]
MESHES = {"16x16": lambda: build_structured(16, 16), "23x23": lambda: build_structured(23, 23),
          "perturbed": lambda: perturbed_mesh(6)}


def graph(pattern):
    """Boolean adjacency of a CSR ``pattern`` (a CSRPattern or a CSR matrix):
    one edge per stored entry, whatever its value."""
    ones = np.ones(len(pattern.indices), dtype=bool)
    return sp.csr_matrix((ones, pattern.indices, pattern.indptr), shape=pattern.shape)


def recursive_dissection(pattern, coords, last=None, first=(), splits=None, halves=None):
    """The recursive nested dissection of a structurally symmetric
    ``pattern``, as the level sweep's reference.

    ``splits``, when given, collects (core, right, separator) of every
    split; ``halves`` counts the splits that fell back to the stable half.
    """
    n = pattern.shape[0]
    adj = graph(pattern)  # boolean products: any neighbour, whatever the degree
    order = []

    def recurse(ids, sub, xy):
        if len(ids) <= LEAF:
            order.append(ids)
            return
        axis = int(np.argmax(xy.max(axis=0) - xy.min(axis=0)))
        med = np.median(xy[:, axis])
        left = xy[:, axis] <= med
        if left.all() or not left.any():
            if halves is not None:
                halves.append(len(ids))
            left = np.zeros(len(ids), dtype=bool)
            left[np.argsort(xy[:, axis], kind="stable")[: len(ids) // 2]] = True
        right = ~left
        sep, across = left & (sub @ right), right & (sub @ left)
        if across.sum() < sep.sum():  # the thinner of the two boundary layers
            left, right, sep = right, left, across
        core = left & ~sep
        if splits is not None:
            splits.append((ids[core], ids[right], ids[sep]))
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
    ids = ids[np.lexsort((ids, coords[ids, 1], coords[ids, 0]))]  # point order: x, then y, then index
    recurse(ids, adj[ids][:, ids].tocsr(), coords[ids])
    if last is not None and len(last):
        order.append(np.asarray(last, dtype=np.int64))
    order, first = np.concatenate(order), np.asarray(first, dtype=np.int64).ravel()
    moved = np.zeros(n, dtype=bool)
    moved[first] = True
    return np.concatenate([first, order[~moved[order]]])


def assembler_call(family, vorticity, mesh, monkeypatch):
    """The arguments and result of the assembler's one nested_dissection call."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs, nested_dissection(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(vvpflow.assembly, "nested_dissection", record)
    asm = SystemAssembler(method_spaces(mesh, family, vorticity), coefficients_from_case(example1_case_2d()))
    asm.oseen()
    asm.oseen()
    assert len(calls) == 1
    return asm, calls[0]


def assert_splits_laid_out(perm, adj, splits):
    """Each split is contiguous in ``perm`` as core, right side, separator,
    no edge joins its core to its right side, and the separator is no larger
    than the right side's layer of DOFs with neighbours in core or separator."""
    where = np.empty(len(perm), dtype=np.int64)
    where[perm] = np.arange(len(perm))
    for core, right, sep in splits:
        assert adj[core][:, right].nnz == 0
        assert len(sep) <= np.count_nonzero(adj[right][:, np.concatenate([core, sep])].getnnz(axis=1))
        at = np.sort(where[np.concatenate([core, right, sep])])
        assert at[-1] - at[0] == len(at) - 1
        assert where[core].max(initial=-1) < where[right].min()
        assert where[right].max() < where[sep].min(initial=len(perm))


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("family,vorticity", STACKS)
def test_level_sweep_equals_the_recursion_on_assembled_systems(family, vorticity, mesh_name, monkeypatch):
    asm, (args, kwargs, perm) = assembler_call(family, vorticity, MESHES[mesh_name](), monkeypatch)
    pattern, coords = args
    assert pattern is asm._pattern  # the ordering reads the pattern, not a matrix's values
    splits = []
    assert np.array_equal(perm, recursive_dissection(pattern, coords, splits=splits, **kwargs))
    n, multiplier = pattern.shape[0], asm.block_index[3]
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert perm[-1] == multiplier and np.array_equal(perm[: asm.local.size], asm.local.ravel())
    assert splits
    # the layout of the splits holds before the cell-local unknowns move to the front
    dissection = nested_dissection(pattern, coords, last=kwargs["last"])
    assert_splits_laid_out(dissection, graph(pattern), splits)


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("family,vorticity", STACKS)
def test_the_assembled_pattern_is_its_own_transpose(family, vorticity, mesh_name):
    # the precondition of nested_dissection, which reads only the rows' neighbours
    asm = SystemAssembler(method_spaces(MESHES[mesh_name](), family, vorticity),
                          coefficients_from_case(example1_case_2d()))
    adj = graph(asm._pattern)
    assert (adj != adj.T).nnz == 0


def random_graph(n, rng):
    """A sparse symmetric graph whose coordinates repeat heavily."""
    rows, cols = rng.integers(0, n, (2, 4 * n))
    matrix = sp.coo_matrix((np.ones(4 * n), (rows, cols)), shape=(n, n)).tocsr()
    return (matrix + matrix.T).tocsr(), rng.integers(0, 3, (n, 2)).astype(float)


def test_duplicated_coordinates_take_the_stable_half():
    matrix, coords = random_graph(1500, np.random.default_rng(3))
    halves, splits = [], []
    expected = recursive_dissection(matrix, coords, splits=splits, halves=halves)
    assert halves  # the median left every node of some part on one side
    perm = nested_dissection(matrix, coords)
    assert np.array_equal(perm, expected)
    assert_splits_laid_out(perm, graph(matrix), splits)


def test_exact_zeros_are_edges():
    # a symmetric graph with exact zeros stored on both sides of 30% of its
    # off-diagonal pairs orders as its all-ones pattern, zeros and all
    rng, n = np.random.default_rng(5), 1200
    matrix, _ = random_graph(n, rng)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    pair = np.minimum(rows, matrix.indices) * n + np.maximum(rows, matrix.indices)
    matrix.data[(rng.random(n * n) < 0.3)[pair] & (rows != matrix.indices)] = 0.0
    coords = rng.uniform(0.0, 1.0, (n, 2))
    perm = nested_dissection(matrix, coords)
    ones = sp.csr_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape)
    assert np.array_equal(perm, nested_dissection(ones, coords))
    assert np.array_equal(perm, recursive_dissection(matrix, coords))
    pruned = matrix.copy()
    pruned.eliminate_zeros()
    assert pruned.nnz < matrix.nnz and not np.array_equal(perm, recursive_dissection(pruned, coords))


def test_support_centroids_sum_column_by_column_bit_for_bit():
    mesh = perturbed_mesh(6)
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    for space in method_spaces(mesh, "taylor-hood", "dg1"):
        coords, counts = np.zeros((space.n_dofs, 2)), np.zeros(space.n_dofs)
        for k in range(space.cell_dofs.shape[1]):
            np.add.at(coords, space.cell_dofs[:, k], centroids)
            np.add.at(counts, space.cell_dofs[:, k], 1.0)
        expected = coords / counts[:, None]
        assert np.array_equal(dof_support_centroids(space.n_dofs, space.cell_dofs, centroids), expected)


def test_no_first_and_no_last():
    rng = np.random.default_rng(11)
    matrix, _ = random_graph(900, rng)
    coords = rng.uniform(0.0, 1.0, (900, 2))
    perm = nested_dissection(matrix, coords, first=())
    assert np.array_equal(perm, recursive_dissection(matrix, coords))
    assert np.array_equal(np.sort(perm), np.arange(900))


def test_small_graph_is_one_leaf():
    matrix = sp.identity(LEAF + 1, format="csr")
    coords = np.zeros((LEAF + 1, 2))
    assert np.array_equal(nested_dissection(matrix, coords, last=np.array([3])),
                          np.concatenate([np.delete(np.arange(LEAF + 1), 3), [3]]))


@pytest.mark.parametrize("half", [1 << 8, 1 << 16])
def test_a_hub_packs_no_count_into_the_other_field(half):
    # the hub sits left of the median with `half` neighbours on the right: in
    # fields of log2(half) bits its count of them would wrap to 0 and drop it
    # from the separator, whose one DOF it is
    y = np.arange(half) / (2.0 * half)
    coords = np.vstack([[0.0, 0.0], np.column_stack([np.zeros(half), y]), np.column_stack([np.ones(half), y])])
    leaves = np.arange(1, 2 * half + 1)
    star = sp.coo_matrix((np.ones(4 * half), (np.r_[np.zeros(2 * half, dtype=int), leaves],
                                              np.r_[leaves, np.zeros(2 * half, dtype=int)]))).tocsr()
    perm = nested_dissection(star, coords)
    assert perm[-1] == 0
    assert np.array_equal(perm, recursive_dissection(star, coords))


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("family,vorticity,bound", [("taylor-hood", "dg1", 235_000), ("bernardi-raugel", "dg0", 120_000)])
def test_condensed_newton_fill_per_factor(family, vorticity, bound):
    # 16x16: 227,256 (TH/dg1) and 113,230 (BR/dg0) nonzeros per factor; a
    # separator always on the left side reads 289,458 and 156,256
    case = example1_case_2d()
    spaces = method_spaces(build_structured(16, 16), family, vorticity)
    _, _, _, rep = solve_newton(spaces, coefficients_from_case(case), g=case.u, pressure_target=case.pressure_integral)
    stats = rep.linear_stats
    assert rep.converged and stats["condensed"]
    assert stats["fill"] <= bound * stats["factors"]
