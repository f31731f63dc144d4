"""The precision ladder of ``solve_linear``.

The condensed complement is factored in float32 first and refined against
the full float64 matrix under the residual contract (or a Newton step's
looser target); a float32 factor that does not contract gives way to a
float64 one, and a solve whose float64 factor fails too raises
``SolverFailure``.  No other matrix is factored.  S's structurally zero
diagonals (``CondensationPlan.lift``) are lifted by 1e-7 ||A|| in float32
(``solver.CONDENSED``), and no computed pivot is.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vvpflow.solver
from vvpflow.assembly import ProblemCoefficients, SystemAssembler, apply_dirichlet
from vvpflow.mesh import build_structured
from vvpflow.solver import SolverFailure, _condense, _refine, solve_linear, solve_newton
from vvpflow.spaces import method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d, run_cavity
from test_condensation import STACKS, assert_contract, newton_system


def recording_splu(monkeypatch):
    """(dtype, permc_spec, matrix) of every factor made from now on."""
    made, original = [], spla.splu

    def spy(matrix, **opts):
        made.append((matrix.dtype, opts.get("permc_spec", "COLAMD"), matrix.copy()))
        return original(matrix, **opts)

    monkeypatch.setattr(spla, "splu", spy)
    return made


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("family, vorticity", [("taylor-hood", "dg1"), ("mini", "cg1"), ("bernardi-raugel", "dg1")])
def test_every_newton_step_meets_the_contract_through_float32_factors(monkeypatch, family, vorticity, n):
    # BR/dg1 at n = 2 and 4 stalls with float64's lift of 1e-8 ||A||: refinement contracts 2-7x a step
    case = example1_case_2d()
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    original = vvpflow.solver.solve_linear
    targets = []

    def checking(system, stats=None, held=None, target=0.0):
        x = original(system, stats, held, target=target)
        assert_contract(system, x, target)
        targets.append(target)
        return x

    monkeypatch.setattr(vvpflow.solver, "solve_linear", checking)
    made = recording_splu(monkeypatch)
    _, _, _, rep = solve_newton(spaces, coefficients_from_case(case), g=case.u, pressure_target=case.pressure_integral)
    stats = rep.linear_stats
    assert rep.converged and stats["n_solves"] == rep.iterations
    assert targets == [eta * r for eta, r in zip(rep.forcing, rep.residual_history)]
    assert stats["float32_factors"] == stats["factors"] == len(made) >= 1
    assert all(dtype == np.float32 and spec == "NATURAL" for dtype, spec, _ in made)
    assert stats["float32_given_up"] == 0 and "float32_reason" not in stats


def test_a_complement_that_cannot_contract_fails_in_both_precisions(monkeypatch):
    # a lift of 1e-3 ||A|| on both rungs factors a matrix too far from the system's to contract: each
    # factor is given up by its projection at its second solve ("7 more"), and nothing else is factored
    _, system = newton_system("taylor-hood", "dg1", 8)
    monkeypatch.setattr(vvpflow.solver, "CONDENSED", ((np.float32, 1e-3), (np.float64, 1e-3)))
    made = recording_splu(monkeypatch)
    held, stats = {}, {}
    with pytest.raises(SolverFailure) as failure:
        solve_linear(system, stats, held)
    assert [(dtype, spec) for dtype, spec, _ in made] == [(np.float32, "NATURAL"), (np.float64, "NATURAL")]
    float32, float64 = str(failure.value).removeprefix("sparse direct solve failed: ").split("; ")
    assert float32 == "the float32 complement: " + stats["float32_reason"]
    assert float32.startswith("the float32 complement: fresh factor at its mean contraction")
    assert float64.startswith("the float64 complement: fresh factor at its mean contraction")
    assert float32.endswith("after 7 more solves") and float64.endswith("after 7 more solves")
    assert stats["float32_given_up"] == 1 and "factors" not in stats and "n_solves" not in stats
    assert held == {}


def test_out_of_memory_in_a_factor_is_a_stated_failure(monkeypatch):
    # SuperLU out of memory in both precisions: each attempt is a failure with the complement's size,
    # and the Newton solve stops at its first step with both
    def no_memory(matrix, **opts):
        raise MemoryError

    monkeypatch.setattr(spla, "splu", no_memory)
    spaces = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
    case = example1_case_2d()
    _, _, _, rep = solve_newton(spaces, coefficients_from_case(case), vvpflow.solver.NonlinearSettings(), g=case.u,
                                pressure_target=case.pressure_integral)
    n = sum(s.n_dofs for s in spaces) + 1 - spaces[1].local_dofs.size
    assert not rep.converged and rep.iterations == 0
    assert rep.failure == (f"sparse direct solve failed: the float32 complement: out of memory at {n} unknowns in "
                           f"float32; the float64 complement: out of memory at {n} unknowns in float64")
    assert rep.linear_stats["float32_given_up"] == 1 and rep.linear_stats["factors"] == 0


def test_a_diverging_cavity_stops_and_factors_no_full_matrix(monkeypatch):
    # Newton diverges on the 32x16 cavity at nu0 = 3e-5, and no step length rescues its fourth step;
    # SuperLU never orders or factors anything but a complement
    made = recording_splu(monkeypatch)
    _, rep = run_cavity(32, 16, nu0=3e-5)
    assert not rep.converged and rep.iterations == 3 and len(rep.residual_history) == 4
    assert rep.failure.startswith("no step length down to 0.0625 reduces the residual at iteration 3")
    V, W, Q = method_spaces(build_structured(32, 16, (0.0, 0.0, 2.0, 1.0)), "mini", "cg1")
    complement = V.n_dofs + W.n_dofs + Q.n_dofs + 1 - V.local_dofs.size
    assert made and all(spec == "NATURAL" and matrix.shape == (complement,) * 2 for _, spec, matrix in made)


def test_a_float32_factor_given_up_is_no_fallback(monkeypatch):
    asm, system = newton_system("taylor-hood", "dg1", 8)
    monkeypatch.setattr(vvpflow.solver, "CONDENSED", ((np.float32, 1.0), vvpflow.solver.CONDENSED[1]))
    made = recording_splu(monkeypatch)
    held, stats = {}, {}
    x = solve_linear(system, stats, held)
    assert [(dtype, spec) for dtype, spec, _ in made] == [(np.float32, "NATURAL"), (np.float64, "NATURAL")]
    assert stats["float32_given_up"] == 1 and "float32_factors" not in stats
    assert stats["factors"] == 1 and stats["condensed"] == asm.local.size
    assert held["n"] == system.n  # the float64 factor is held
    assert_contract(system, x)


def test_a_fresh_float32_factor_is_given_up_by_its_projection_only():
    # a solve whose first step contracts 2x and whose second is exact: the 4x rule of a stale factor
    # refuses it at its first step, a fresh factor of either precision meets the contract at its second
    rng = np.random.default_rng(0)
    a = sp.csr_matrix(np.eye(30) * 4.0 + rng.uniform(-0.1, 0.1, (30, 30)))
    b = rng.standard_normal(30)
    exact = spla.splu(a.tocsc())
    calls = []

    def damped(*factors):
        """The exact solve, its i-th call times factors[i] (the last one thereafter): step i's
        residual is (1 - factors[i]) times the one before."""
        calls.clear()

        def solve(r):
            calls.append(len(calls))
            return exact.solve(r) * factors[min(len(calls), len(factors)) - 1]

        return solve

    norm_a = np.abs(a).sum(axis=1).max()
    x, steps, reason = _refine(damped(0.5, 1.0), a, b, norm_a, {}, stale=True)
    assert x is None and steps == 1 and reason.endswith("< 4x at step 1")
    x, steps, reason = _refine(damped(0.5, 1.0), a, b, norm_a, {})
    assert reason is None and steps == 2
    assert np.abs(a @ x - b).max() <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())

    x, steps, reason = _refine(damped(0.5), a, b, norm_a, {})
    assert x is None and steps == 2 and reason.startswith("fresh factor at its mean contraction 2.0x")
    # a fast first step, then 2x a step: the mean contraction projects the contract until the last
    # solve, where the residual itself exceeds the bound
    x, steps, reason = _refine(damped(1 - 2e-7, 0.5), a, b, norm_a, {})
    assert x is None and steps == len(calls) == vvpflow.solver.REFINE_STEPS + 1
    assert reason.startswith("refined residual") and reason.endswith("exceeds the contract bound after 9 solves")


def test_refinement_accepts_a_looser_target_before_any_give_up():
    # a factor that halves the residual a step: the target accepts its first or second residual, and a
    # held factor's 4x test comes after it
    rng = np.random.default_rng(1)
    a = sp.csr_matrix(np.eye(20) * 4.0 + rng.uniform(-0.1, 0.1, (20, 20)))
    b = rng.standard_normal(20)
    exact = spla.splu(a.tocsc())
    half = lambda r: 0.5 * exact.solve(r)
    norm_a, norm_b = np.abs(a).sum(axis=1).max(), np.abs(b).max()
    for target, stale, steps in ((0.6 * norm_b, True, 1), (0.3 * norm_b, False, 2)):
        x, taken, reason = _refine(half, a, b, norm_a, {}, stale=stale, target=target)
        assert reason is None and taken == steps and np.abs(a @ x - b).max() <= target
    assert _refine(half, a, b, norm_a, {}, stale=True, target=0.3 * norm_b)[2].endswith("< 4x at step 1")
    assert _refine(half, a, b, norm_a, {})[2].startswith("fresh factor at its mean contraction 2.0x")


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("family, vorticity, zeros", [(family, vorticity, "multiplier" if family == "mini" else "pressure")
                                                       for family, vorticity, _, _ in STACKS]
                         + [("bernardi-raugel", "dg1", "pressure")])
def test_the_float32_lift_touches_exactly_the_zero_diagonals(monkeypatch, family, vorticity, zeros):
    asm, system = newton_system(family, vorticity, 6)
    a, plan = system.matrix, system.plan
    norm_a = np.abs(a).sum(axis=1).max()
    made = recording_splu(monkeypatch)
    solve_linear(system, {})
    _condense(a, plan, np.float32, 0.0)  # S unlifted
    (dtype, _, lifted), (_, _, bare) = made
    assert dtype == bare.dtype == np.float32
    assert np.array_equal(lifted.indices, bare.indices) and np.array_equal(lifted.indptr, bare.indptr)
    moved = np.flatnonzero(lifted.data != bare.data)
    diagonal = np.flatnonzero(bare.indices == np.repeat(np.arange(bare.shape[0]), np.diff(bare.indptr)))
    assert np.array_equal(moved, diagonal[bare.data[diagonal] == 0.0])
    assert np.array_equal(moved, plan.lift)
    assert np.all(lifted.data[moved] == np.float32(1e-7 * norm_a))
    # the structural zeros: the G unknowns whose row stores no diagonal key and no key of a local unknown
    n, ptr, idx = a.shape[0], plan.pattern.indptr, plan.pattern.indices
    rows, local = np.repeat(np.arange(n), np.diff(ptr)), np.zeros(n, dtype=bool)
    local[plan.local] = True
    filled = np.zeros(n, dtype=bool)
    filled[rows[(idx == rows) | local[idx]]] = True
    o, rest = asm.block_index, plan.rest
    unknowns = rest[np.searchsorted(diagonal, moved)]
    assert np.array_equal(unknowns, rest[~filled[rest]])
    # they are the pressure rows that couple to no local unknown, and the multiplier (last in S)
    if zeros == "pressure":
        assert np.all((unknowns >= o[2]) & (unknowns <= o[3])) and len(unknowns) == o[3] - o[2] + 1
    else:
        assert np.array_equal(unknowns, [o[3]])


def test_a_tiny_computed_pivot_is_not_lifted(monkeypatch):
    # MINI/cg1 at beta = 0 with sigma = 1e5 (a Brinkman permeability of 1e-5): 32 computed pivots of
    # S lie below 1e-8 ||A||.  A rule that lifted every diagonal below that would lift them, and
    # neither precision's factor would contract; lifting only the structural zero (the multiplier)
    # meets the contract in float32
    spaces = method_spaces(build_structured(8, 8), "mini", "cg1")
    const = lambda value: lambda x, y: np.full_like(x, value)
    coeffs = ProblemCoefficients(nu=const(1.0), sigma=const(1e5), f=lambda x, y: np.stack([np.ones_like(x), x], axis=-1),
                                 kappa1=0.5, kappa2=0.5, nu0=1.0, nu1=1.0, sigma0=1e5, sigma1=1e5)
    system = apply_dirichlet(SystemAssembler(spaces, coeffs).oseen(), spaces[0], None)
    a, plan = system.matrix, system.plan
    norm_a = np.abs(a).sum(axis=1).max()
    made = recording_splu(monkeypatch)
    stats = {}
    x = solve_linear(system, stats)
    assert_contract(system, x)
    assert stats["float32_factors"] == stats["factors"] == len(made) == 1 and "float32_given_up" not in stats
    _condense(a, plan, np.float32, 0.0)  # S unlifted
    (_, _, lifted), (_, _, bare) = made
    diagonal = bare.diagonal()
    assert np.count_nonzero((diagonal != 0.0) & (np.abs(diagonal) < 1e-8 * norm_a)) == 32
    assert np.array_equal(np.flatnonzero(lifted.data != bare.data), plan.lift) and len(plan.lift) == 1
