import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vvpflow.assembly
import vvpflow.solver
from vvpflow.assembly import (
    AssembledSystem,
    CSRPattern,
    SystemAssembler,
    apply_dirichlet,
    assemble_gram_X,
    assemble_newton,
    assemble_oseen,
    gram_values,
)
from vvpflow.mesh import build_structured
from vvpflow.solver import (
    DiagnosticsConfig,
    NonlinearSettings,
    SolverFailure,
    _gram_norm,
    check_small_data,
    grad_nu_norm,
    solve_linear,
    solve_newton,
    solve_picard,
)
from vvpflow.spaces import DiscreteField, method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d, integral, run_cavity
from test_cell_classes import perturbed_mesh

RNG = np.random.default_rng(99)


def example1_problem(n):
    case = example1_case_2d()
    coeffs = coefficients_from_case(case)
    spaces = method_spaces(build_structured(n, n), "taylor-hood", "dg1")
    return case, coeffs, spaces


class TestSolveLinear:
    def test_a_system_without_a_plan_is_rejected(self):
        n = 5
        with pytest.raises(ValueError, match="no condensation plan"):
            AssembledSystem(sp.identity(n, format="csr"), np.eye(n)[0], (0, 2, 3, 4, 5), bc_applied=True)

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
            system.data,
            system.matrix @ x_star,
            system.block_index,
            bc_applied=True,
            plan=system.plan,
        )
        x = solve_linear(sys2)
        assert np.abs(x - x_star).max() / np.abs(x_star).max() < 1e-9

    def test_residual_contract(self):
        _, coeffs, spaces = example1_problem(4)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        b = RNG.standard_normal(system.n)
        sys2 = AssembledSystem(system.data, b, system.block_index, True, plan=system.plan)
        x = solve_linear(sys2)
        norm_a = np.abs(system.matrix).sum(axis=1).max()
        res = np.abs(system.matrix @ x - b).max()
        assert res <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())

    def test_singular_matrix_raises(self):
        _, coeffs, spaces = example1_problem(2)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        # on the plan's pattern: every cell-local block is singular
        sys = dataclasses.replace(system, data=np.zeros_like(system.data), rhs=np.ones(system.n))
        with pytest.raises(SolverFailure, match="^sparse direct solve failed: singular cell-local block") as failure:
            solve_linear(sys)
        assert "complement" not in str(failure.value)  # no factor was made


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
    """There is no fallback past the condensed complement: a system whose
    complement fails in float32 and in float64 raises with both reasons;
    TH/dg1 at n = 12 has 2,284 unknowns."""

    @pytest.fixture
    def system(self):
        _, coeffs, spaces = example1_problem(12)
        system = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        assert system.n > 2000
        return system

    def test_failure_names_every_reason(self, system, monkeypatch):
        reasons = iter(["float32 reason", "float64 reason"])

        def splu_fails(*args, **opts):
            raise RuntimeError(next(reasons))

        monkeypatch.setattr("scipy.sparse.linalg.splu", splu_fails)
        stats = {}
        with pytest.raises(SolverFailure, match="failed: the float32 complement: float32 reason; the float64 "
                                                "complement: float64 reason$"):
            solve_linear(system, stats=stats)
        assert stats["float32_given_up"] == 1 and stats["float32_reason"] == "float32 reason"
        assert "factors" not in stats and "n_solves" not in stats


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


def test_singular_system_reports_instead_of_raising(monkeypatch):
    # zero viscosity leaves the vorticity rows identically zero, so the
    # system is structurally singular; the solver must report the
    # breakdown instead of raising.  Its bounds are out of range, so the
    # bounds check is bypassed.
    from vvpflow.assembly import ProblemCoefficients

    monkeypatch.setattr(ProblemCoefficients, "check_bounds", lambda self: None)
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


def test_an_initial_guess_off_the_velocity_space_is_rejected():
    case, coeffs, spaces = example1_problem(4)
    coarse = example1_problem(2)[2][0]  # 50 velocity DOFs against 162
    rectangle = method_spaces(build_structured(4, 4, (0.0, 0.0, 3.0, 5.0)), "taylor-hood", "dg1")[0]  # 162 too
    for space in (coarse, spaces[2], rectangle):
        settings = NonlinearSettings(initial_guess=DiscreteField(space, np.zeros(space.n_dofs)))
        with pytest.raises(ValueError, match=re.escape("initial guess must live on the velocity space "
                                                       "FunctionSpace(p2, vector, 162 dofs)")):
            solve_newton(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)


def test_an_initial_guess_on_an_equal_velocity_space_is_accepted():
    case, coeffs, spaces = example1_problem(4)
    twin = example1_problem(4)[2][0]  # another space object on an equal mesh
    settings = NonlinearSettings(initial_guess=DiscreteField(twin, np.zeros(twin.n_dofs)))
    assert solve_newton(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)[3].converged


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


@pytest.mark.parametrize("max_iters", [1.5, np.nan, 2.0, 0, -1, True, False])
def test_max_iters_must_be_an_integer_of_at_least_one(max_iters):
    # a fractional or NaN cap is never reached by the loop's count
    with pytest.raises(ValueError, match="max_iters must be an integer of at least 1"):
        NonlinearSettings(max_iters=max_iters)
    assert NonlinearSettings(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("field, value", [("r", np.nan), ("r", np.inf), ("delta", np.nan), ("delta", np.inf)])
def test_diagnostics_range_checks_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        DiagnosticsConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("C_4", np.nan), ("C_4", 0.0), ("C_4", np.inf), ("C_r", np.nan),
                                          ("C_r", -2.0), ("grad_nu_Lrstar", -1.0), ("grad_nu_Lrstar", np.nan),
                                          ("grad_nu_Lrstar", np.inf)])
def test_diagnostics_constants_must_suit_their_formulas(field, value):
    # C_4 = 0 divided by zero in delta_limit, and NaN passed silently into alpha or delta_limit
    rule = "non-negative and finite" if field == "grad_nu_Lrstar" else "positive and finite"
    with pytest.raises(ValueError, match=f"{field} must be {rule}"):
        DiagnosticsConfig(**{field: value})
    assert DiagnosticsConfig(grad_nu_Lrstar=0.0).grad_nu_Lrstar == 0.0


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


def test_forcing_terms_follow_the_residual_history():
    # eta_0 is the cap from a zero start and the tolerance's term alone from an initial guess; later
    # ones take the larger of the squared residual ratio's term and the tolerance's, capped
    cap, gamma, floor = vvpflow.solver.FORCING_CAP, vvpflow.solver.FORCING_GAMMA, vvpflow.solver.FORCING_FLOOR
    case, coeffs, spaces = example1_problem(4)
    u, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    h = rep.residual_history
    tol_term = floor * 1e-8 * max(1.0, h[0])
    expected = [cap] + [min(cap, max(gamma * (h[k] / h[k - 1]) ** 2, tol_term / h[k]))
                        for k in range(1, rep.iterations)]
    assert rep.converged and rep.forcing == pytest.approx(expected, rel=1e-14)
    assert rep.forcing[0] == cap and max(rep.forcing) <= cap
    warm = solve_newton(spaces, coeffs, NonlinearSettings(initial_guess=u), g=case.u,
                        pressure_target=case.pressure_integral)[3]
    h = warm.residual_history
    assert warm.forcing[0] == pytest.approx(floor * 1e-8 * max(1.0, h[0]) / h[0], rel=1e-14)
    assert warm.converged and warm.forcing[0] < 1e-6


@pytest.mark.parametrize("family, vorticity, n", [("taylor-hood", "dg1", 8), ("mini", "cg1", 16),
                                                  ("bernardi-raugel", "dg0", 8)])
def test_inexact_steps_keep_the_pressure_integral_on_its_target(family, vorticity, n):
    # the multiplier's row is linear and no other row sees a constant pressure, so each update is shifted
    # onto it: the integral meets its target to roundoff, though no step solves its system past eta_k ||F_k||
    case = example1_case_2d()
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    _, _, p, rep = solve_newton(spaces, coefficients_from_case(case), g=case.u, pressure_target=case.pressure_integral)
    assert rep.converged and min(rep.forcing) > 1e-10
    assert abs(integral(p) - case.pressure_integral) <= 1e-13 * np.abs(p.coefficients).max()


def test_example1_takes_whole_steps_and_the_cavity_starts_with_half_steps():
    case, coeffs, spaces = example1_problem(4)
    rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)[3]
    assert rep.converged and rep.step_lengths == [1.0] * rep.iterations
    _, cavity = run_cavity(64, 32)
    assert cavity.converged and cavity.iterations <= 7 and cavity.linear_stats["factors"] <= 6
    assert cavity.step_lengths[:2] == [0.5, 0.5] and len(cavity.forcing) == cavity.iterations


@pytest.mark.parametrize("nu0", [0.001, 3e-4])
def test_the_damped_cavity_converges_where_undamped_newton_diverges(nu0):
    _, rep = run_cavity(32, 16, nu0=nu0)
    assert rep.converged and rep.iterations <= 8 and rep.step_lengths[0] < 1.0
    # every step taken passed the Armijo test
    h = rep.residual_history
    assert all(h[k + 1] <= (1.0 - 1e-4 * step) * h[k] for k, step in enumerate(rep.step_lengths))


def test_a_step_that_no_length_rescues_stops_the_run():
    _, rep = run_cavity(16, 8, nu0=1e-5)
    k, residual = rep.iterations, rep.residual_history[-1]
    assert not rep.converged and k <= 3 and len(rep.residual_history) == len(rep.step_lengths) + 1 == k + 1
    assert len(rep.forcing) == k + 1  # the refused step was solved for
    assert re.fullmatch(rf"no step length down to 0\.0625 reduces the residual at iteration {k} "
                        rf"\(residual {residual:.3e}, (\S+) at that length\)", rep.failure)
    trial = float(re.search(r", (\S+) at that length", rep.failure)[1])
    assert trial > (1.0 - 1e-4 / 16) * residual


def test_non_finite_residual_stops_before_the_jacobian(monkeypatch):
    case, coeffs, spaces = example1_problem(4)
    coeffs = dataclasses.replace(coeffs, f=lambda x, y: np.full(np.shape(x) + (2,), np.nan))

    def no_matrix(self, conv):
        raise AssertionError("a Jacobian was assembled at a non-finite residual")

    monkeypatch.setattr(SystemAssembler, "_matrix", no_matrix)
    _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert not rep.converged and rep.iterations == 0 and len(rep.residual_history) == 1
    assert rep.failure == "non-finite residual at iteration 0"


def test_solve_reports_its_ordering_time(monkeypatch):
    case, coeffs, spaces = example1_problem(4)
    asm = SystemAssembler(spaces, coeffs)
    built = asm.ordering_time
    assert built > 0.0  # set at construction
    asm.oseen()
    asm.newton_system(np.zeros(asm.block_index[4]))
    assert asm.ordering_time == built  # later assemblies leave it
    assemblers = []
    original = SystemAssembler._elimination_order

    def recording(self, closure):
        original(self, closure)
        assemblers.append(self)

    monkeypatch.setattr(SystemAssembler, "_elimination_order", recording)
    _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert rep.iterations >= 2 and len(assemblers) == 1
    assert rep.linear_stats["ordering_time"] == assemblers[0].ordering_time > 0.0  # booked once, not per step


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
    n = sum(space.n_dofs for space in spaces) + 1  # and the multiplier
    assert shapes == [(n, n)]  # the linear part's; the increments' norm builds none


@pytest.mark.parametrize("n", [16, 32])
def test_one_full_matrix_is_alive_at_the_factor(monkeypatch, n):
    # in multiples of the factored complement's CSC bytes: the numpy memory
    # alive when SuperLU starts, and the traced peak of the whole solve
    case, coeffs, spaces = example1_problem(n)
    entries = []
    original = spla.splu

    def recording(a, *args, **kwargs):
        # the complement's data at float64 size, whatever precision it is factored in
        entries.append((tracemalloc.get_traced_memory()[0], 8 * a.data.size + a.indices.nbytes + a.indptr.nbytes))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    tracemalloc.start()
    try:
        _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.linear_stats["factors"] == len(entries) == 1
    alive, csc = entries[0]
    assert alive <= 9 * csc
    assert peak <= 16 * csc


def test_no_phase_before_the_factor_peaks_far_above_what_the_factor_needs(monkeypatch):
    # traced peak of each phase up to the first factor, over the numpy memory
    # alive when SuperLU starts (TH/dg1, n = 32): set-up, the ordering inside
    # it included, reads 1.22, the ordering 0.70 and condensation 1.11;
    # condensation read 1.54 while its whole sparse difference, shift and CSC
    # copy each allocated beside the complement
    case, coeffs, spaces = example1_problem(32)
    peaks, alive = {}, []
    running = {}  # per open phase, its peak before a phase inside it reset the counter

    def phase(name, function):
        def traced(*args, **kwargs):
            for outer in running:
                running[outer] = max(running[outer], tracemalloc.get_traced_memory()[1])
            running[name] = 0
            tracemalloc.reset_peak()
            try:
                return function(*args, **kwargs)
            finally:
                peaks.setdefault(name, max(running.pop(name), tracemalloc.get_traced_memory()[1]))
        return traced

    original = spla.splu

    def factor(a, *args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        alive.append(current)
        peaks.setdefault("condensation", peak)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(SystemAssembler, "_ensure_linear", phase("set-up", SystemAssembler._ensure_linear))
    monkeypatch.setattr(vvpflow.assembly, "nested_dissection", phase("ordering", vvpflow.assembly.nested_dissection))
    monkeypatch.setattr(vvpflow.solver, "apply_dirichlet", phase("elimination", vvpflow.solver.apply_dirichlet))
    monkeypatch.setattr(vvpflow.solver, "_condense", phase("condensation", vvpflow.solver._condense))
    monkeypatch.setattr(spla, "splu", factor)
    tracemalloc.start()
    try:
        _, _, _, rep = solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.linear_stats["factors"] == len(alive) == 1
    assert peaks.keys() == {"set-up", "ordering", "elimination", "condensation"}
    assert max(peaks.values()) <= 1.3 * alive[0], {name: peak / alive[0] for name, peak in peaks.items()}


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("family, vorticity, solve", [("taylor-hood", "dg1", solve_newton),
                                                      ("bernardi-raugel", "dg1", solve_picard)])
def test_velocity_increments_are_gram_norms_of_the_updates(monkeypatch, family, vorticity, solve):
    case = example1_case_2d()
    spaces = method_spaces(build_structured(4, 4), family, vorticity)
    updates = []
    original = vvpflow.solver.solve_linear

    def recording(system, stats=None, held=None, target=0.0):
        updates.append(original(system, stats, held, target=target))
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


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
def test_gram_norm_takes_each_cell_block_from_its_class(mesh):
    # one block per affine class gives the norm of the per-cell blocks; on the perturbed mesh every
    # cell is its own class and keeps its own block
    mesh = build_structured(8, 8) if mesh == "structured" else perturbed_mesh(6)
    spaces = method_spaces(mesh, "taylor-hood", "dg1")
    asm = SystemAssembler(spaces, coefficients_from_case(example1_case_2d()))
    cls, nb = asm.classes, spaces[0].cell_dofs.shape[1]
    per_cell = gram_values(cls, asm.W)[0].reshape(-1, nb, nb)
    assert np.array_equal(per_cell, per_cell[cls.first][cls.label])  # a class's cells share their block
    assert len(cls.first) == (2 if mesh.nx == 8 else mesh.n_cells)
    du = RNG.standard_normal((mesh.n_cells, nb))
    expected = np.sqrt(np.einsum("ca,cab,cb->", du, per_cell, du))
    assert _gram_norm(per_cell[cls.first], cls.label, du) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("solve", [solve_newton, solve_picard])
def test_each_iteration_assembles_one_matrix(monkeypatch, solve):
    # the residual of each state is summed without a matrix; only the update's matrix is built
    case, coeffs, spaces = example1_problem(4)
    calls = []
    original = SystemAssembler._matrix

    def counting(self, conv):
        calls.append(conv)
        return original(self, conv)

    monkeypatch.setattr(SystemAssembler, "_matrix", counting)
    _, _, _, rep = solve(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
    assert rep.converged and rep.iterations >= 2
    assert len(calls) == rep.iterations


@pytest.mark.parametrize("family, vorticity", [("taylor-hood", "dg1"), ("mini", "cg1")])
def test_newton_residual_is_the_oseen_residual_of_the_state(family, vorticity):
    case = example1_case_2d()
    spaces = method_spaces(build_structured(6, 6), family, vorticity)
    asm = SystemAssembler(spaces, coefficients_from_case(case))
    state = RNG.standard_normal(asm.block_index[4])
    _, residual = asm.newton_system(state, pressure_target=0.7)
    oseen = asm.oseen(beta=DiscreteField(spaces[0], state[: asm.block_index[1]]), pressure_target=0.7)
    expected = oseen.rhs - oseen.matrix @ state
    expected[spaces[0].dirichlet_dofs] = 0.0
    assert np.all(residual[spaces[0].dirichlet_dofs] == 0.0)
    assert np.abs(residual - expected).max() <= 1e-14 * np.abs(expected).max()
