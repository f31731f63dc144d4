import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import vvpflow.solver
from vvpflow.assembly import (
    AssembledSystem,
    CSRPattern,
    SystemAssembler,
    apply_dirichlet,
    assemble_gram_X,
    assemble_newton,
    assemble_oseen,
)
from vvpflow.mesh import build_structured
from vvpflow.solver import (
    DiagnosticsConfig,
    NonlinearSettings,
    SolverFailure,
    check_small_data,
    grad_nu_norm,
    solve_linear,
    solve_newton,
    solve_picard,
)
from vvpflow.spaces import method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d, integral

RNG = np.random.default_rng(99)


def example1_problem(n):
    case = example1_case_2d()
    coeffs = coefficients_from_case(case)
    spaces = method_spaces(build_structured(n, n), "taylor-hood", "dg1")
    return case, coeffs, spaces


class TestSolveLinear:
    def test_identity_system(self):
        n = 5
        sys = AssembledSystem(
            sp.identity(n, format="csr"),
            np.eye(n)[0],
            (0, 2, 3, 4, 5),
            bc_applied=True,
        )
        x = solve_linear(sys)
        assert np.allclose(x, np.eye(n)[0])

    def test_requires_boundary_conditions(self):
        _, coeffs, spaces = example1_problem(2)
        system = assemble_oseen(spaces, coeffs)
        with pytest.raises(ValueError):
            solve_linear(system)

    def test_recovers_manufactured_solution(self):
        _, coeffs, spaces = example1_problem(4)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        x_star = RNG.standard_normal(system.n)
        sys2 = AssembledSystem(
            system.matrix,
            system.matrix @ x_star,
            system.block_index,
            bc_applied=True,
            ordering=system.ordering,
        )
        x = solve_linear(sys2)
        assert np.abs(x - x_star).max() / np.abs(x_star).max() < 1e-9

    def test_residual_contract(self):
        _, coeffs, spaces = example1_problem(4)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        b = RNG.standard_normal(system.n)
        sys2 = AssembledSystem(system.matrix, b, system.block_index, True, ordering=system.ordering)
        x = solve_linear(sys2)
        norm_a = np.abs(system.matrix).sum(axis=1).max()
        res = np.abs(system.matrix @ x - b).max()
        assert res <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())

    def test_singular_matrix_raises(self):
        n = 4
        sys = AssembledSystem(
            sp.csr_matrix((n, n)), np.ones(n), (0, 1, 2, 3, 4), bc_applied=True
        )
        with pytest.raises(SolverFailure):
            solve_linear(sys)


class TestNewton:
    def test_example1_converges_quickly(self):
        case, coeffs, spaces = example1_problem(8)
        u, w, p, rep = solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        assert rep.converged
        assert rep.iterations <= 6
        assert len(rep.residual_history) == rep.iterations + 1
        tol = 1e-8
        first = rep.residual_history[0]
        assert rep.residual_history[-1] <= max(tol, tol * first)

    def test_quadratic_tail(self):
        case, coeffs, spaces = example1_problem(8)
        _, _, _, rep = solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        h = [r for r in rep.residual_history if r > 1e-13]
        assert len(h) >= 4
        c = h[-2] / h[-3] ** 2
        assert h[-1] <= 100.0 * c * h[-2] ** 2

    def test_zero_data_single_iteration(self):
        _, coeffs, spaces = example1_problem(2)
        coeffs.f = lambda x, y: np.zeros(np.shape(x) + (2,))
        u, w, p, rep = solve_newton(spaces, coeffs)
        assert rep.converged and rep.iterations == 1
        assert np.abs(u.coefficients).max() <= 1e-14
        assert np.abs(w.coefficients).max() <= 1e-14
        assert np.abs(p.coefficients).max() <= 1e-14

    def test_post_solve_nonlinear_residual(self):
        case, coeffs, spaces = example1_problem(4)
        u, w, p, rep = solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        state = np.concatenate([u.coefficients, w.coefficients, p.coefficients, [rep.multiplier]])
        _, residual = assemble_newton(spaces, coeffs, state, pressure_target=case.pressure_integral)
        assert np.abs(residual).max() <= 1e-8

    def test_pressure_integral_matches_target(self):
        from vvpflow.verify import l2_error

        case, coeffs, spaces = example1_problem(4)
        _, _, p, rep = solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        p_norm = l2_error(p, lambda x, y: np.zeros_like(x), quad_degree=6)
        gap = abs(integral(p, 8) - case.pressure_integral)
        assert gap <= 1e-10 * p_norm

    def test_non_convergence_reports_instead_of_raising(self):
        case, coeffs, spaces = example1_problem(4)
        settings = NonlinearSettings(method="newton", tol=1e-8, max_iters=1)
        _, _, _, rep = solve_newton(
            spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral
        )
        assert not rep.converged
        assert rep.iterations == 1
        assert len(rep.residual_history) == 2


class TestLinearFallback:
    """Above 2,000 unknowns the nested-dissection path runs first; TH/dg1
    at n = 12 has 2,284."""

    @pytest.fixture
    def system(self):
        _, coeffs, spaces = example1_problem(12)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        assert system.n > 2000
        return system

    def test_fallback_is_counted(self, system, monkeypatch):
        original = vvpflow.solver._refined_solve

        def nd_fails(factor_of, a, b, norm_a, **opts):
            if opts.get("permc_spec") == "NATURAL":
                return None, 0, "forced failure"
            return original(factor_of, a, b, norm_a, **opts)

        monkeypatch.setattr(vvpflow.solver, "_refined_solve", nd_fails)
        stats = {}
        x = solve_linear(system, stats=stats)
        assert stats["fallbacks"] == 1 and stats["n_solves"] == 1
        norm_a = np.abs(system.matrix).sum(axis=1).max()
        res = np.abs(system.matrix @ x - system.rhs).max()
        assert res <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(system.rhs).max())

    def test_failure_names_both_reasons(self, system, monkeypatch):
        reasons = iter(["nested-dissection reason", "fallback reason"])
        monkeypatch.setattr(vvpflow.solver, "_refined_solve", lambda *args, **opts: (None, 0, next(reasons)))
        stats = {}
        with pytest.raises(SolverFailure, match="fallback reason.*nested-dissection reason"):
            solve_linear(system, stats=stats)
        assert stats["fallbacks"] == 1


class TestPicard:
    def test_example1_converges_with_contraction(self):
        case, coeffs, spaces = example1_problem(8)
        settings = NonlinearSettings(method="picard", tol=1e-8, max_iters=25)
        u, w, p, rep = solve_picard(
            spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral
        )
        assert rep.converged
        assert rep.iterations <= 25
        hist = rep.residual_history
        assert all(hist[k + 1] < hist[k] for k in range(1, len(hist) - 1))
        inc = rep.velocity_increments
        ratios = [inc[k + 1] / inc[k] for k in range(len(inc) - 1)]
        assert all(r < 1.0 for r in ratios)

    def test_zero_data_single_iteration(self):
        _, coeffs, spaces = example1_problem(2)
        coeffs.f = lambda x, y: np.zeros(np.shape(x) + (2,))
        settings = NonlinearSettings(method="picard")
        u, _, _, rep = solve_picard(spaces, coeffs, settings)
        assert rep.converged and rep.iterations == 1
        assert np.abs(u.coefficients).max() <= 1e-14

    def test_method_mismatch_rejected(self):
        _, coeffs, spaces = example1_problem(2)
        with pytest.raises(ValueError):
            solve_picard(spaces, coeffs, NonlinearSettings(method="newton"))
        with pytest.raises(ValueError):
            solve_newton(spaces, coeffs, NonlinearSettings(method="picard"))


def test_picard_and_newton_agree():
    # the small-data solution is unique, so both iterations must land on it
    case, coeffs, spaces = example1_problem(4)
    tight = dict(tol=1e-11, max_iters=60)
    un, wn, pn, rn = solve_newton(
        spaces, coeffs, NonlinearSettings(method="newton", **tight),
        g=case.u, pressure_target=case.pressure_integral,
    )
    up, wp, pp, rp = solve_picard(
        spaces, coeffs, NonlinearSettings(method="picard", **tight),
        g=case.u, pressure_target=case.pressure_integral,
    )
    assert rn.converged and rp.converged
    assert np.abs(un.coefficients - up.coefficients).max() < 1e-7
    assert np.abs(wn.coefficients - wp.coefficients).max() < 1e-7
    assert np.abs(pn.coefficients - pp.coefficients).max() < 1e-7


def test_singular_system_reports_instead_of_raising():
    # zero viscosity leaves the vorticity rows identically zero, so the
    # system is structurally singular; the solver must report the
    # breakdown instead of raising
    from vvpflow.assembly import ProblemCoefficients

    degenerate = ProblemCoefficients(
        nu=lambda x, y: np.zeros_like(x),
        sigma=lambda x, y: np.zeros_like(x),
        f=lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1),
        kappa1=0.0,
        kappa2=0.0,
        nu0=0.0,
        nu1=0.0,
        sigma0=0.0,
        sigma1=0.0,
        validate=False,
    )
    spaces = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
    _, _, _, rep = solve_newton(spaces, degenerate)
    assert not rep.converged
    assert rep.failure is not None
    assert len(rep.residual_history) == rep.iterations + 1


def test_initial_guess_field_is_used():
    case, coeffs, spaces = example1_problem(4)
    u, _, _, first = solve_newton(
        spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
    )
    settings = NonlinearSettings(method="newton", initial_guess=u)
    _, _, _, warm = solve_newton(
        spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral
    )
    # the advecting field starts at the solution, so the remaining
    # (linear) blocks are recovered in a single step
    assert warm.converged
    assert warm.iterations == 1


def test_settings_validation():
    with pytest.raises(ValueError):
        NonlinearSettings(method="secant")
    with pytest.raises(ValueError):
        NonlinearSettings(tol=0.0)
    with pytest.raises(ValueError):
        NonlinearSettings(max_iters=0)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_non_finite_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="finite"):
        NonlinearSettings(tol=tol)


class TestSmallDataDiagnostics:
    def test_reference_arithmetic(self):
        coeffs = _plain_coefficients(sigma0=1.0, nu0=1.0, kappa1=0.5, kappa2=1.0)
        rep = check_small_data(coeffs, DiagnosticsConfig(), f_norm=0.0)
        assert rep.alpha == pytest.approx(5.0 / 16.0, abs=1e-15)
        assert rep.alpha_bar == pytest.approx(5.0 / 16.0, abs=1e-15)
        assert rep.min_term == pytest.approx(5.0 / 16.0)
        assert rep.subtrahend == 0.0
        assert rep.ellipticity_ok

    def test_kappa1_at_upper_limit(self):
        nu0 = 0.3
        coeffs = _plain_coefficients(sigma0=10.0, nu0=nu0, kappa1=(2.0 / 3.0) * nu0, kappa2=10.0)
        rep = check_small_data(coeffs, DiagnosticsConfig(), f_norm=0.0)
        # kappa1 (1 - 3 kappa1 / (4 nu0)) at kappa1 = 2/3 nu0 is nu0 / 3
        assert rep.min_term == pytest.approx(nu0 / 3.0, abs=1e-15)

    def test_large_viscosity_gradient_flags(self):
        coeffs = _plain_coefficients(sigma0=1.0, nu0=1.0, kappa1=0.5, kappa2=1.0)
        diag = DiagnosticsConfig(grad_nu_Lrstar=10.0)
        rep = check_small_data(coeffs, diag, f_norm=0.0)
        assert rep.alpha <= 0.0
        assert not rep.ellipticity_ok
        assert not rep.delta_ok and not rep.data_ok

    def test_alpha_independent_of_embedding_constant_without_gradient(self):
        coeffs = _plain_coefficients(sigma0=1.0, nu0=1.0, kappa1=0.5, kappa2=1.0)
        a1 = check_small_data(coeffs, DiagnosticsConfig(C_r=1.0), 0.0).alpha
        a2 = check_small_data(coeffs, DiagnosticsConfig(C_r=57.0), 0.0).alpha
        assert a1 == a2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiagnosticsConfig(r=2.0)
        with pytest.raises(ValueError):
            DiagnosticsConfig(delta=0.0)
        assert DiagnosticsConfig(r=4.0).r_star == pytest.approx(4.0)
        assert DiagnosticsConfig(r=3.0).r_star == pytest.approx(6.0)

    def test_grad_nu_norm_by_quadrature(self):
        coeffs = _plain_coefficients(sigma0=1.0, nu0=0.5, kappa1=0.25, kappa2=1.0)
        coeffs.grad_nu = lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)
        mesh = build_structured(4, 4)
        assert grad_nu_norm(mesh, coeffs, 4.0) == pytest.approx(1.0, abs=1e-12)
        coeffs.grad_nu = None
        assert grad_nu_norm(mesh, coeffs, 4.0) == 0.0


def _plain_coefficients(sigma0, nu0, kappa1, kappa2):
    from vvpflow.assembly import ProblemCoefficients

    return ProblemCoefficients(
        nu=lambda x, y: np.full_like(x, nu0),
        sigma=lambda x, y: np.full_like(x, sigma0),
        f=lambda x, y: np.zeros(np.shape(x) + (2,)),
        kappa1=kappa1,
        kappa2=kappa2,
        nu0=nu0,
        nu1=nu0,
        sigma0=sigma0,
        sigma1=sigma0,
    )


def test_exhausted_iterations_give_a_stated_reason():
    case, coeffs, spaces = example1_problem(4)
    _, _, _, rep = solve_newton(spaces, coeffs, NonlinearSettings(max_iters=1), g=case.u,
                                pressure_target=case.pressure_integral)
    assert not rep.converged and rep.iterations == 1
    assert rep.failure == f"no convergence in 1 iterations (last residual {rep.residual_history[-1]:.3e})"


def test_non_finite_residual_stops_before_the_jacobian(monkeypatch):
    case, coeffs, spaces = example1_problem(4)
    coeffs = dataclasses.replace(coeffs, f=lambda x, y: np.full(np.shape(x) + (2,), np.nan), validate=False)

    def no_jacobian(self, conv):
        raise AssertionError("a Jacobian was assembled at a non-finite residual")

    monkeypatch.setattr(SystemAssembler, "jacobian", no_jacobian)
    _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert not rep.converged and rep.iterations == 0 and len(rep.residual_history) == 1
    assert rep.failure == "non-finite residual at iteration 0"


def test_solve_reports_its_ordering_time():
    case, coeffs, spaces = example1_problem(4)
    asm = SystemAssembler(spaces, coeffs)
    asm.oseen()
    assert asm.ordering_time > 0.0
    asm.oseen()
    assert asm.ordering_time == 0.0  # cached
    _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert rep.linear_stats["ordering_time"] > 0.0


def test_a_solve_sorts_one_pattern(monkeypatch):
    case, coeffs, spaces = example1_problem(8)
    shapes = []
    original = CSRPattern.__init__

    def counting(self, rows, cols, shape):
        shapes.append(shape)
        original(self, rows, cols, shape)

    monkeypatch.setattr(CSRPattern, "__init__", counting)
    _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert rep.converged and rep.iterations >= 2
    n = SystemAssembler(spaces, coeffs).block_index[4]
    assert shapes == [(n, n)]  # the linear part's; the increments' norm builds none


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("family, vorticity, solve", [("taylor-hood", "dg1", solve_newton),
                                                      ("bernardi-raugel", "dg1", solve_picard)])
def test_velocity_increments_are_gram_norms_of_the_updates(monkeypatch, family, vorticity, solve):
    case = example1_case_2d()
    spaces = method_spaces(build_structured(4, 4), family, vorticity)
    updates = []
    original = vvpflow.solver.solve_linear

    def recording(system, stats=None, held=None):
        updates.append(original(system, stats, held))
        return updates[-1]

    monkeypatch.setattr(vvpflow.solver, "solve_linear", recording)
    _, _, _, rep = solve(spaces, coeffs=coefficients_from_case(case), g=case.u,
                         pressure_target=case.pressure_integral)
    gram, n_u = assemble_gram_X(spaces), spaces[0].n_dofs
    expected = []
    for x in updates:
        z = np.zeros(gram.shape[0])
        z[:n_u] = x[:n_u]
        expected.append(np.sqrt(z @ (gram @ z)))
    assert rep.converged and len(updates) == rep.iterations >= 2
    assert np.allclose(rep.velocity_increments, expected, rtol=1e-12, atol=0.0)
