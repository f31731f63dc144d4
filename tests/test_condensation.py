"""Static condensation of the cell-local unknowns in ``solve_linear``.

The dg vorticity and the MINI bubbles couple only inside their own cell.
For every system with an elimination order ``solve_linear`` eliminates them
cell by cell, factors the Schur complement and refines against the full
matrix; these tests check that against a full-matrix SuperLU solve.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vvpflow.solver
from vvpflow.assembly import SystemAssembler, apply_dirichlet
from vvpflow.mesh import build_structured
from vvpflow.solver import solve_linear
from vvpflow.spaces import build_space, interpolate, method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d

# (family, vorticity, n, local unknowns per cell)
STACKS = [
    ("taylor-hood", "dg1", 12, 3),
    ("mini", "cg1", 16, 2),
    ("mini", "dg1", 14, 5),
    ("bernardi-raugel", "dg0", 16, 1),
]


def newton_system(family, vorticity, n):
    """Dirichlet-eliminated Newton system at the interpolated exact velocity."""
    case = example1_case_2d()
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    asm = SystemAssembler(spaces, coefficients_from_case(case))
    state = np.zeros(asm.block_index[4])
    state[: asm.block_index[1]] = interpolate(spaces[0], case.u).coefficients
    jac, residual = asm.newton_system(state)
    jac.rhs[:] = residual
    return asm, apply_dirichlet(jac, spaces[0], None)


def full_solve(system):
    """Full-matrix SuperLU solve: static pivots in the system's elimination
    order, refined against the matrix under the residual contract.

    It lifts the zero diagonals by the same shift as ``solve_linear``, but
    only those of unknowns that couple to no cell-local unknown: the others
    are filled when the local unknowns are eliminated.  So both solves
    factor the same shifted matrix, and their refined solutions agree to
    roundoff, although the contract allows a forward error of about 1e-10
    here.
    """
    a, b, perm = system.matrix.tocsr(), system.rhs, system.ordering
    norm_a = np.abs(a).sum(axis=1).max()
    eps = 1e-8 * norm_a
    touches_local = np.asarray(abs(a[:, system.local.ravel()]).sum(axis=1)).ravel() > 0
    shift = np.where((np.abs(a.diagonal()) < eps) & ~touches_local, eps, 0.0)
    lu = spla.splu((a + sp.diags(shift))[perm][:, perm].tocsc(), permc_spec="NATURAL",
                   options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
    x = np.zeros_like(b)
    for _ in range(8):
        res = b - a @ x
        if np.abs(res).max() <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max()):
            return x
        x[perm] += lu.solve(res[perm])
    raise AssertionError("the reference solve did not meet the contract")


def assert_contract(system, x):
    a, b = system.matrix, system.rhs
    norm_a = np.abs(a).sum(axis=1).max()
    assert np.abs(a @ x - b).max() <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("family,vorticity,n,k", STACKS)
def test_condensed_solve_matches_full_solve(family, vorticity, n, k):
    asm, system = newton_system(family, vorticity, n)
    assert system.n > 2000 and system.local.shape == (asm.mesh.n_cells, k)
    stats = {}
    x = solve_linear(system, stats=stats)
    assert stats["condensed"] == asm.mesh.n_cells * k
    assert stats.get("fallbacks", 0) == 0
    assert_contract(system, x)
    ref = full_solve(system)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("family,vorticity,n,k", STACKS + [("taylor-hood", "cg1", 5, 0)])
def test_ordering_puts_the_local_unknowns_first_by_cell(family, vorticity, n, k):
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    asm = SystemAssembler(spaces, coefficients_from_case(example1_case_2d()))
    system = asm.oseen()
    order = system.ordering
    assert np.array_equal(np.sort(order), np.arange(system.n))
    assert np.array_equal(order[: asm.local.size], asm.local.ravel())
    assert order[-1] == asm.block_index[3]
    # every local unknown lies in its cell, and couples only inside it
    V, W, _ = spaces
    for cell, dofs in enumerate(asm.local):
        assert np.isin(dofs, np.r_[V.cell_dofs[cell], W.cell_dofs[cell] + asm.block_index[1]]).all()
    cell_of = np.full(system.n, -1)
    cell_of[asm.local] = np.arange(asm.mesh.n_cells)[:, None]
    coo = system.matrix.tocoo()
    both = (cell_of[coo.row] >= 0) & (cell_of[coo.col] >= 0)
    assert np.array_equal(cell_of[coo.row][both], cell_of[coo.col][both])


def test_local_dofs_of_each_space():
    mesh = build_structured(3, 2)
    nc = mesh.n_cells
    for family, vector, k in [("dg0", False, 1), ("dg1", False, 3), ("p1bubble", False, 1), ("p1bubble", True, 2),
                              ("p1", False, 0), ("p2", True, 0), ("bernardi-raugel", True, 0)]:
        space = build_space(mesh, family, vector=vector)
        assert space.local_dofs.shape == (nc, k)
        assert np.array_equal(space.local_dofs, space.cell_dofs[:, space.cell_dofs.shape[1] - k :])
        # a local DOF belongs to one cell only
        assert len(np.unique(space.local_dofs)) == space.local_dofs.size


def test_stack_without_local_unknowns_takes_the_same_path(monkeypatch):
    asm, system = newton_system("taylor-hood", "cg1", 15)
    assert system.n > 2000 and system.local.shape == (asm.mesh.n_cells, 0)
    calls = []
    original = vvpflow.solver._refined_solve

    def spy(factor_of, a, b, norm_a, **opts):
        calls.append((factor_of.shape, opts.get("permc_spec"), opts.get("expand") is not None))
        return original(factor_of, a, b, norm_a, **opts)

    monkeypatch.setattr(vvpflow.solver, "_refined_solve", spy)
    stats = {}
    x = solve_linear(system, stats=stats)
    assert calls == [((system.n, system.n), "NATURAL", True)]
    assert stats["condensed"] == 0 and stats.get("fallbacks", 0) == 0
    assert_contract(system, x)
    ref = full_solve(system)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_local_block_is_a_counted_fallback():
    asm, system = newton_system("taylor-hood", "dg1", 12)
    a = system.matrix.tocsr()
    cell = 7
    rows = np.repeat(np.arange(system.n), np.diff(a.indptr))
    block = np.isin(rows, asm.local[cell]) & np.isin(a.indices, asm.local[cell])
    assert block.sum() == 9
    a.data[block] = 0.0  # the cell's vorticity still couples to its velocity
    system.matrix = a
    stats = {}
    x = solve_linear(system, stats=stats)
    assert stats["fallbacks"] == 1 and stats["n_solves"] == 1 and stats.get("condensed", 0) == 0
    assert "singular cell-local block in 1 of" in stats["fallback_reason"]
    assert f"[{cell}]" in stats["fallback_reason"]
    assert_contract(system, x)
