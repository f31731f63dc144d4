"""Static condensation of the cell-local unknowns in ``solve_linear``.

The dg vorticity and the MINI bubbles couple only inside their own cell.
For every system with a condensation plan ``solve_linear`` eliminates them
cell by cell on the plan's fixed patterns, factors the Schur complement and
refines against the full matrix; these tests check that against a
full-matrix SuperLU solve, and the plan's patterns and checks.  A system
without a plan, or a matrix off it, is rejected.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vvpflow.solver
from vvpflow.assembly import CondensationPlan, SystemAssembler, apply_dirichlet
from vvpflow.mesh import build_structured
from vvpflow.solver import SolverFailure, _condense, solve_linear, solve_newton
from vvpflow.spaces import DiscreteField, build_space, interpolate, method_spaces
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
    shift = np.where((a.diagonal() == 0.0) & ~touches_local, eps, 0.0)
    lu = spla.splu((a + sp.diags(shift))[perm][:, perm].tocsc(), permc_spec="NATURAL",
                   options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
    x = np.zeros_like(b)
    for _ in range(8):
        res = b - a @ x
        if np.abs(res).max() <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max()):
            return x
        x[perm] += lu.solve(res[perm])
    raise AssertionError("the reference solve did not meet the contract")


def assert_contract(system, x, target=0.0):
    """``solve_linear``'s contract: the backward-error bound, or ``target`` where that is looser."""
    a, b = system.matrix, system.rhs
    norm_a = np.abs(a).sum(axis=1).max()
    assert np.abs(a @ x - b).max() <= max(1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max()), target)


def float64_rung_only(monkeypatch):
    # the float64 complement factors the same shifted matrix as the reference, to roundoff
    monkeypatch.setattr(vvpflow.solver, "CONDENSED", vvpflow.solver.CONDENSED[1:])
    assert [dtype for dtype, _ in vvpflow.solver.CONDENSED] == [np.float64]


@pytest.mark.parametrize("family,vorticity,n,k", STACKS)
def test_condensed_solve_matches_full_solve(monkeypatch, family, vorticity, n, k):
    asm, system = newton_system(family, vorticity, n)
    assert system.n > 2000 and system.local.shape == (asm.mesh.n_cells, k)
    float64_rung_only(monkeypatch)
    stats = {}
    x = solve_linear(system, stats=stats)
    assert stats["condensed"] == asm.mesh.n_cells * k
    assert stats["factors"] == 1 and "float32_factors" not in stats
    assert_contract(system, x)
    ref = full_solve(system)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("family,vorticity,n,k", STACKS + [("taylor-hood", "cg1", 15, 0)])
def test_float32_condensed_solve_meets_the_contract(family, vorticity, n, k):
    # the float32 factor's solution meets the contract and agrees with the float64 reference to the
    # forward error the contract allows: measured 1.2e-10, 8.8e-15, 1.7e-14, 6.4e-10 and 9.4e-11
    asm, system = newton_system(family, vorticity, n)
    stats = {}
    x = solve_linear(system, stats=stats)
    assert stats["float32_factors"] == stats["factors"] == stats["n_solves"] == 1
    assert stats["condensed"] == asm.mesh.n_cells * k
    assert "float32_given_up" not in stats
    assert_contract(system, x)
    ref = full_solve(system)
    assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()


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
    float64_rung_only(monkeypatch)
    calls = []
    original = spla.splu

    def spy(factor_of, **opts):
        calls.append((factor_of.shape, opts.get("permc_spec")))
        return original(factor_of, **opts)

    monkeypatch.setattr(spla, "splu", spy)
    stats = {}
    x = solve_linear(system, stats=stats)
    # one static-pivot factor of the (empty-)condensed complement
    assert calls == [((system.n, system.n), "NATURAL")]
    assert stats["condensed"] == 0
    assert_contract(system, x)
    ref = full_solve(system)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_a_singular_local_block_fails_at_once(monkeypatch):
    # A_LL is inverted in float64 for either factor: a float64 attempt would gather and invert it again
    asm, system = newton_system("taylor-hood", "dg1", 12)
    a = system.matrix  # edited in place
    cell = 7
    rows = np.repeat(np.arange(system.n), np.diff(a.indptr))
    block = np.isin(rows, asm.local[cell]) & np.isin(a.indices, asm.local[cell])
    assert block.sum() == 9
    a.data[block] = 0.0  # the cell's vorticity still couples to its velocity
    precisions = []

    def recording(a, plan, dtype, lift):
        precisions.append(dtype)
        return _condense(a, plan, dtype, lift)

    monkeypatch.setattr(vvpflow.solver, "_condense", recording)
    stats = {}
    with pytest.raises(SolverFailure) as failure:
        solve_linear(system, stats=stats)
    reason = f"singular cell-local block in 1 of {asm.mesh.n_cells} cells [{cell}]"
    assert str(failure.value) == f"sparse direct solve failed: {reason}"
    assert precisions == [np.float32]
    assert "float32_given_up" not in stats and "n_solves" not in stats and "condensed" not in stats


@pytest.mark.parametrize("family,vorticity,n", [("mini", "cg1", 6), ("taylor-hood", "dg1", 8)])
def test_the_fill_depends_on_the_mesh_only(family, vorticity, n):
    # two states whose sums round differently; with the complement formed numerically, which drops
    # the exact zeros its products and differences happen to give, MINI/cg1 at n = 6 factored 29,031
    # nonzeros at beta = 0 (after a failed condensed factor) against 7,144
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    asm = SystemAssembler(spaces, coefficients_from_case(example1_case_2d()))
    beta = DiscreteField(spaces[0], np.random.default_rng(1).standard_normal(spaces[0].n_dofs))
    systems = [apply_dirichlet(asm.oseen(beta=b), spaces[0], None) for b in (None, beta)]
    assert not np.array_equal(systems[0].matrix.data, systems[1].matrix.data)
    stats = [{}, {}]
    for system, st in zip(systems, stats):
        for attr in ("indices", "indptr"):
            assert np.shares_memory(getattr(system.matrix, attr), getattr(asm._pattern, attr))
        assert_contract(system, solve_linear(system, stats=st))
    assert stats[0]["fill"] == stats[1]["fill"] and stats[0]["condensed"] == stats[1]["condensed"] > 0
    assert stats[0]["factors"] == stats[1]["factors"] == 1


def test_a_matrix_off_its_plan_is_rejected():
    # a compacted matrix's entries do not fill the plan's slots: no system, and so no factor, is made of them
    _, system = newton_system("taylor-hood", "dg1", 12)
    compacted = system.matrix.copy()
    compacted.eliminate_zeros()
    assert compacted.nnz < system.matrix.nnz
    with pytest.raises(ValueError, match=rf"^entries \({compacted.nnz},\) and rhs \({system.n},\) do not fit"):
        dataclasses.replace(system, data=compacted.data)


@pytest.mark.parametrize("family,vorticity,n,k", STACKS)
def test_condensation_reads_only_the_arrays_of_the_matrix(family, vorticity, n, k):
    # no sparse product, sum, slice or conversion of the matrix: its bare arrays condense alike
    _, system = newton_system(family, vorticity, n)
    a = system.matrix
    bare = SimpleNamespace(data=a.data, indices=a.indices, indptr=a.indptr)
    (solve, fill), (bare_solve, bare_fill) = (_condense(m, system.plan, np.float64, 1e-6) for m in (a, bare))
    assert fill == bare_fill and np.array_equal(solve(system.rhs), bare_solve(system.rhs))


def test_one_plan_per_assembler(monkeypatch):
    built = []
    original = CondensationPlan.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(CondensationPlan, "__init__", counting)
    case = example1_case_2d()
    spaces = method_spaces(build_structured(8, 8), "mini", "cg1")
    _, _, _, rep = solve_newton(spaces, coefficients_from_case(case), g=case.u, pressure_target=case.pressure_integral)
    assert rep.converged and rep.iterations >= 2 and len(built) == 1
