"""The factor held across the systems of one nonlinear solve.

The nonlinear loop keeps the last factor it made and refines each later
system against it under the residual contract, or a Newton step's looser
target; it refactors once a refinement step contracts the residual by
less than ``STALE_CONTRACTION``, and a Newton step that contracts the
nonlinear residual by less than that releases the factor.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import vvpflow.solver
from vvpflow.assembly import SystemAssembler, apply_dirichlet
from vvpflow.mesh import build_structured
from vvpflow.solver import NonlinearSettings, SolverFailure, solve_linear, solve_newton, solve_picard
from vvpflow.spaces import interpolate, method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d, run_cavity
from test_condensation import assert_contract


def example1(n):
    case = example1_case_2d()
    return case, coefficients_from_case(case), method_spaces(build_structured(n, n), "taylor-hood", "dg1")


def refuse_every_stale_factor(monkeypatch):
    # no step can contract the residual infinitely, so every held factor is refactored at its first step
    monkeypatch.setattr(vvpflow.solver, "STALE_CONTRACTION", np.inf)


def test_newton_factors_once_and_each_step_meets_the_contract(monkeypatch):
    case, coeffs, spaces = example1(16)
    # the last step is solved to half the tolerance, so the fields' 1e-8 comparison needs a tighter one
    settings = NonlinearSettings(tol=1e-10)
    checked = []

    def checking(system, stats=None, held=None, target=0.0):
        x = original(system, stats, held, target=target)
        assert_contract(system, x, target)
        checked.append(target)
        return x

    original = vvpflow.solver.solve_linear
    monkeypatch.setattr(vvpflow.solver, "solve_linear", checking)
    u, w, p, rep = solve_newton(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)
    stats = rep.linear_stats
    assert rep.converged and len(checked) == rep.iterations == 3
    # each step is solved to its forcing term's share of its residual, or to the contract where that is looser
    assert checked == [eta * r for eta, r in zip(rep.forcing, rep.residual_history)]
    assert stats["factors"] == 1 and stats["reused"] == rep.iterations - 1
    assert stats["refactors"] == 0 and stats["float32_given_up"] == 0
    assert stats["stale_steps"] >= stats["reused"] and stats["refine_time"] > 0.0

    def refusing(system, stats=None, held=None, target=0.0):
        if held:  # a held factor that solves nothing: refused at its first step
            held.update(refused_factor(system))
        return original(system, stats, held, target=target)

    monkeypatch.setattr(vvpflow.solver, "solve_linear", refusing)
    uf, wf, pf, fresh = solve_newton(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)
    assert fresh.linear_stats["factors"] == fresh.iterations == rep.iterations
    assert fresh.linear_stats["reused"] == 0 and fresh.linear_stats["refactors"] == fresh.iterations - 1
    assert "contracted" in fresh.linear_stats["refactor_reason"]
    # the histories agree to the forcing terms: both solves of step k leave a linear residual of at most
    # eta_k ||F_k||, so the residuals they step to differ by at most twice that
    h, hf = np.array(rep.residual_history), np.array(fresh.residual_history)
    assert h[0] == hf[0] and np.all(np.abs(h - hf)[1:] <= 2.0 * np.array(rep.forcing) * h[:-1])
    for field, ref in [(u, uf), (w, wf), (p, pf)]:
        assert np.abs(field.coefficients - ref.coefficients).max() <= 1e-8 * np.abs(ref.coefficients).max()


def test_the_cavity_tries_no_held_factor_after_a_slow_step(monkeypatch):
    """A Newton step that cuts the residual by less than ``STALE_CONTRACTION``
    releases the held factor, so the next system is factored at once."""
    tried = []

    def recording(system, stats=None, held=None, target=0.0):
        tried.append(bool(held))
        return original(system, stats, held, target=target)

    original = vvpflow.solver.solve_linear
    monkeypatch.setattr(vvpflow.solver, "solve_linear", recording)
    _, rep = run_cavity(64, 32)
    h = rep.residual_history
    assert rep.converged and len(tried) == rep.iterations
    assert tried == [False] + [h[k] >= vvpflow.solver.STALE_CONTRACTION * h[k + 1] for k in range(rep.iterations - 1)]
    assert tried.count(False) < rep.iterations - 1  # some step contracted 4x, and some did not
    assert rep.linear_stats["refactors"] <= 1
    assert rep.linear_stats["factors"] == rep.linear_stats["refactors"] + tried.count(False)


def test_slow_contraction_refactors_with_its_reason():
    """The beta = 0 Oseen factor preconditions the Jacobian at 50 times the
    exact velocity too poorly: the solve refactors."""
    case = example1_case_2d()
    spaces = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")
    asm = SystemAssembler(spaces, coefficients_from_case(case))
    held = {}
    solve_linear(apply_dirichlet(asm.oseen(), spaces[0], case.u), {}, held)
    assert held["n"] == asm.block_index[4]
    oseen_solve = held["solve"]

    state = np.zeros(asm.block_index[4])
    state[: asm.block_index[1]] = 50.0 * interpolate(spaces[0], case.u).coefficients
    jac, residual = asm.newton_system(state)
    jac.rhs[:] = residual
    system = apply_dirichlet(jac, spaces[0], None)
    stats = {}
    x = solve_linear(system, stats, held)
    assert stats["refactors"] == 1 and stats["factors"] == 1 and stats.get("reused", 0) == 0
    assert stats["refactor_reason"].startswith("stale factor contracted")
    assert stats["refactor_reason"].endswith("< 4x at step 1")
    assert stats["n_solves"] == 1
    assert held["solve"] is not oseen_solve  # the new factor is held
    assert_contract(system, x)


def test_a_hopeless_stale_factor_is_given_up_by_its_projection():
    """At 1.8 times the exact velocity the beta = 0 Oseen factor contracts
    more than 4x per step, but too slowly to meet the contract within the
    refinement steps left: it is refactored at step 2, not after 9 solves."""
    case = example1_case_2d()
    spaces = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")
    asm = SystemAssembler(spaces, coefficients_from_case(case))
    held = {}
    solve_linear(apply_dirichlet(asm.oseen(), spaces[0], case.u), {}, held)
    oseen_solve = held["solve"]

    state = np.zeros(asm.block_index[4])
    state[: asm.block_index[1]] = 1.8 * interpolate(spaces[0], case.u).coefficients
    jac, residual = asm.newton_system(state)
    jac.rhs[:] = residual
    system = apply_dirichlet(jac, spaces[0], None)
    a = system.matrix.tocsr()
    norm_a = np.abs(a).sum(axis=1).max()
    # run to the step cap, the held factor does not meet the contract
    b, x = system.rhs, oseen_solve(system.rhs)
    for _ in range(vvpflow.solver.REFINE_STEPS):
        x += oseen_solve(b - a @ x)
    assert np.abs(b - a @ x).max() > 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())

    stats = {}
    x = solve_linear(system, stats, held)
    assert stats["refactors"] == 1 and stats["factors"] == 1 and stats.get("reused", 0) == 0
    assert stats["stale_steps"] == 2
    assert stats["refactor_reason"].startswith("stale factor at its mean contraction")
    assert "projects residual" in stats["refactor_reason"]
    assert held["solve"] is not oseen_solve
    assert_contract(system, x)


def test_picard_reuses_its_factor_in_as_many_iterations(monkeypatch):
    case, coeffs, spaces = example1(8)
    settings = NonlinearSettings(method="picard", tol=1e-8, max_iters=25)
    *_, rep = solve_picard(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)
    refuse_every_stale_factor(monkeypatch)
    *_, fresh = solve_picard(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)
    assert rep.converged and fresh.converged
    assert rep.iterations == fresh.iterations
    assert rep.linear_stats["reused"] >= 1
    assert fresh.linear_stats["reused"] == 0 and fresh.linear_stats["factors"] == fresh.iterations


def test_a_factor_of_another_size_is_never_used():
    case, coeffs, spaces = example1(4)
    system = apply_dirichlet(SystemAssembler(spaces, coeffs).oseen(), spaces[0], case.u)

    def foreign(r):
        raise AssertionError("a factor of another size was applied")

    held, stats = {"solve": foreign, "n": system.n + 1}, {}
    x = solve_linear(system, stats, held)
    assert stats["factors"] == 1 and stats.get("reused", 0) == 0 and stats.get("stale_steps", 0) == 0
    assert held["n"] == system.n and held["solve"] is not foreign
    assert_contract(system, x)


@pytest.mark.parametrize("held", [None, {}])
def test_without_a_held_factor_every_solve_factors(held):
    case, coeffs, spaces = example1(4)
    system = apply_dirichlet(SystemAssembler(spaces, coeffs).oseen(), spaces[0], case.u)
    stats = {}
    x = solve_linear(system, stats, held)
    assert stats["factors"] == 1 and stats["n_solves"] == 1 and "reused" not in stats
    assert stats["factor_time"] > 0.0 and stats["refine_time"] > 0.0
    assert_contract(system, x)


def refused_factor(system):
    """A held factor of this system's size that solves nothing: refused at its first step."""
    return {"solve": np.zeros_like, "n": system.n}


def test_when_every_path_fails_nothing_is_held(monkeypatch):
    case, coeffs, spaces = example1(4)
    system = apply_dirichlet(SystemAssembler(spaces, coeffs).oseen(), spaces[0], case.u)
    reasons = iter(["float32 reason", "float64 reason"])

    def splu_fails(*args, **opts):
        raise RuntimeError(next(reasons))

    monkeypatch.setattr(spla, "splu", splu_fails)
    held, stats = refused_factor(system), {}
    with pytest.raises(SolverFailure, match="float32 reason.*float64 reason"):
        solve_linear(system, stats, held)
    assert stats["refactors"] == 1 and stats["float32_given_up"] == 1
    assert stats.get("factors", 0) == 0 and stats.get("n_solves", 0) == 0
    assert held == {}


def test_a_held_factor_with_non_finite_values_is_refactored():
    case, coeffs, spaces = example1(4)
    system = apply_dirichlet(SystemAssembler(spaces, coeffs).oseen(), spaces[0], case.u)
    held = {"solve": lambda r: np.full(len(r), np.nan), "n": system.n}
    stats = {}
    x = solve_linear(system, stats, held)
    assert stats["refactor_reason"] == "factorisation produced non-finite values"
    assert stats["refactors"] == stats["stale_steps"] == stats["factors"] == 1 and stats.get("reused", 0) == 0
    assert held["n"] == system.n and np.all(np.isfinite(held["solve"](system.rhs)))
    assert_contract(system, x)
