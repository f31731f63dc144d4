import math
import re
import warnings

import numpy as np
import pytest

from vvpflow.assembly import assemble_gram_X, assemble_newton, default_quad_degree
from vvpflow.mesh import build_structured
from vvpflow.quadrature import CellQuadrature, quadrature
from vvpflow.solver import NonlinearSettings, SolveReport, solve_newton
from vvpflow.spaces import DiscreteField, interpolate, method_spaces
from vvpflow.verify import (
    ConvergenceReport,
    ManufacturedCase,
    cavity_coefficients,
    coefficients_from_case,
    div_norm,
    eoc,
    error_norms,
    example1_case_2d,
    forcing_from_momentum,
    l2_error,
    run_cavity,
    run_convergence,
    velocity_error_norm,
)

RNG = np.random.default_rng(2024)


def polynomial_case():
    """Solenoidal quadratic velocity with linear vorticity and pressure,
    representable exactly in the Taylor-Hood stack."""
    zero2 = lambda x, y: np.zeros(np.shape(x) + (2,))

    def u(x, y):
        return np.stack([x**2, -2.0 * x * y], axis=-1)

    def grad_u(x, y):
        g = np.zeros(np.shape(x) + (2, 2))
        g[..., 0, 0] = 2.0 * x
        g[..., 1, 0] = -2.0 * y
        g[..., 1, 1] = -2.0 * x
        return g

    return ManufacturedCase(
        name="polynomial",
        rect=(0.0, 0.0, 1.0, 1.0),
        u=u,
        grad_u=grad_u,
        p=lambda x, y: x - 0.5,
        grad_p=lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1),
        omega=lambda x, y: -2.0 * y,
        grad_omega=lambda x, y: np.stack([np.zeros_like(x), -2.0 * np.ones_like(x)], axis=-1),
        nu=lambda x, y: np.ones_like(x),
        grad_nu=zero2,
        sigma=lambda x, y: np.ones_like(x),
        nu0=1.0,
        nu1=1.0,
        sigma0=1.0,
        sigma1=1.0,
        pressure_integral=0.0,
    )


class TestExample1Case:
    def setup_method(self):
        self.case = example1_case_2d()
        self.x = RNG.random(1000)
        self.y = RNG.random(1000)

    def test_velocity_is_divergence_free(self):
        g = self.case.grad_u(self.x, self.y)
        div = g[..., 0, 0] + g[..., 1, 1]
        assert np.abs(div).max() <= 1e-12

    def test_vorticity_matches_velocity_curl(self):
        g = self.case.grad_u(self.x, self.y)
        curl = g[..., 1, 0] - g[..., 0, 1]
        assert np.abs(curl - self.case.omega(self.x, self.y)).max() <= 1e-12

    def test_divergence_at_sample_point(self):
        g = self.case.grad_u(0.3, 0.7)
        assert g[0, 0] + g[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_vorticity_at_origin(self):
        assert self.case.omega(0.0, 0.0) == pytest.approx(-2.0 * np.pi)
        assert self.case.omega(0.0, 0.0) == pytest.approx(-6.2832, abs=5e-5)

    def test_viscosity_profile(self):
        assert self.case.nu(0.0, 0.0) == pytest.approx(1.0)
        # cos(pi x y) = 0 at x y = 1/2, where the viscosity floors out
        assert self.case.nu(np.sqrt(0.5), np.sqrt(0.5)) == pytest.approx(0.1, abs=1e-12)
        assert self.case.sigma(0.0, 0.0) == pytest.approx(10.0)

    def test_viscosity_gradient_consistent(self):
        eps = 1e-6
        g = self.case.grad_nu(self.x[:50], self.y[:50])
        fdx = (self.case.nu(self.x[:50] + eps, self.y[:50]) - self.case.nu(self.x[:50] - eps, self.y[:50])) / (2 * eps)
        fdy = (self.case.nu(self.x[:50], self.y[:50] + eps) - self.case.nu(self.x[:50], self.y[:50] - eps)) / (2 * eps)
        assert np.abs(g[..., 0] - fdx).max() < 1e-8
        assert np.abs(g[..., 1] - fdy).max() < 1e-8

    def test_pressure_integral(self):
        assert self.case.pressure_integral == pytest.approx(4.0 / np.pi**2)


class TestForcing:
    def test_zero_fields_give_zero_forcing(self):
        zero2 = lambda x, y: np.zeros(np.shape(x) + (2,))
        zero22 = lambda x, y: np.zeros(np.shape(x) + (2, 2))
        zero = lambda x, y: np.zeros_like(x)
        case = ManufacturedCase(
            name="null",
            rect=(0.0, 0.0, 1.0, 1.0),
            u=zero2,
            grad_u=zero22,
            p=zero,
            grad_p=zero2,
            omega=zero,
            grad_omega=zero2,
            nu=lambda x, y: np.ones_like(x),
            grad_nu=zero2,
            sigma=lambda x, y: np.ones_like(x),
            nu0=1.0,
            nu1=1.0,
            sigma0=1.0,
            sigma1=1.0,
        )
        x, y = RNG.random(10), RNG.random(10)
        assert np.abs(case.f(x, y)).max() == 0.0

    @staticmethod
    def finite_difference_forcing(case, x, y, h=1e-6):
        """Momentum residual with every derivative from central differences."""

        def num_grad(fn, x, y):
            return np.stack(
                [(fn(x + h, y) - fn(x - h, y)) / (2 * h), (fn(x, y + h) - fn(x, y - h)) / (2 * h)],
                axis=-1,
            )

        u = case.u(x, y)
        gu = np.stack([num_grad(lambda a, b: case.u(a, b)[..., i], x, y) for i in range(2)], axis=-2)
        gw = num_grad(case.omega, x, y)
        gp = num_grad(case.p, x, y)
        gnu = num_grad(case.nu, x, y)
        nu = case.nu(x, y)
        sig = case.sigma(x, y)
        curl_w = np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
        conv = np.einsum("...ij,...j->...i", gu, u)
        eps = 0.5 * (gu + np.swapaxes(gu, -1, -2))
        return sig[..., None] * u + nu[..., None] * curl_w + conv - 2.0 * np.einsum(
            "...ij,...j->...i", eps, gnu
        ) + gp

    def test_constant_viscosity_against_finite_differences(self):
        case = example1_case_2d()
        flat = ManufacturedCase(
            name="flat-nu",
            rect=case.rect,
            u=case.u,
            grad_u=case.grad_u,
            p=case.p,
            grad_p=case.grad_p,
            omega=case.omega,
            grad_omega=case.grad_omega,
            nu=lambda x, y: np.ones_like(x),
            grad_nu=lambda x, y: np.zeros(np.shape(x) + (2,)),
            sigma=lambda x, y: 10.0 * np.ones_like(x),
            nu0=1.0,
            nu1=1.0,
            sigma0=10.0,
            sigma1=10.0,
        )
        x, y = 0.05 + 0.9 * RNG.random(100), 0.05 + 0.9 * RNG.random(100)
        fd = self.finite_difference_forcing(flat, x, y)
        assert np.abs(flat.f(x, y) - fd).max() < 1e-6

    def test_full_case_against_finite_differences(self):
        case = example1_case_2d()
        x, y = 0.05 + 0.9 * RNG.random(100), 0.05 + 0.9 * RNG.random(100)
        fd = self.finite_difference_forcing(case, x, y)
        assert np.abs(case.f(x, y) - fd).max() < 1e-6


class TestErrorNorms:
    def test_exact_polynomial_solution_has_zero_error(self):
        case = polynomial_case()
        spaces = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
        u_h = interpolate(spaces[0], case.u)
        w_h = interpolate(spaces[1], case.omega)
        p_h = interpolate(spaces[2], case.p)
        e_u, e_w, e_p = error_norms(u_h, w_h, p_h, case)
        assert e_u <= 1e-12 and e_w <= 1e-12 and e_p <= 1e-12

    def test_interpolation_error_bounded_by_h_squared(self):
        case = example1_case_2d()
        spaces = method_spaces(build_structured(32, 32), "taylor-hood", "dg1")
        u_h = interpolate(spaces[0], case.u)
        e_u = velocity_error_norm(u_h, case, quad_degree=9)
        h = np.sqrt(2.0) / 32.0
        assert 0.0 < e_u <= 10.0 * h**2  # loose interpolation-theory sanity bound

    @pytest.mark.parametrize("family, vorticity, n", [("taylor-hood", "dg1", 8), ("mini", "cg1", 8),
                                                      ("bernardi-raugel", "dg0", 8), ("taylor-hood", "dg1", 23)])
    def test_one_pass_equals_the_separate_norms(self, family, vorticity, n):
        # n = 23 has 1,058 cells: three chunks, summed in chunk order in both
        case = example1_case_2d()
        spaces = method_spaces(build_structured(n, n), family, vorticity)
        rng = np.random.default_rng(n)
        u_h, w_h, p_h = (DiscreteField(s, interpolate(s, fn).coefficients + 1e-3 * rng.standard_normal(s.n_dofs))
                         for s, fn in zip(spaces, (case.u, case.omega, case.p)))
        degree = default_quad_degree(spaces[0]) + 3
        separate = (velocity_error_norm(u_h, case, degree), l2_error(w_h, case.omega, degree), l2_error(p_h, case.p, degree))
        assert error_norms(u_h, w_h, p_h, case) == separate

    @pytest.mark.parametrize("nx, ny, rect", [(8, 8, (0.0, 0.0, 1.0, 1.0)), (4, 4, (0.0, 0.0, 2.0, 2.0))])
    def test_fields_on_another_mesh_are_rejected(self, nx, ny, rect):
        # one pass integrates on the first field's cells: another mesh's field would be measured there
        case = example1_case_2d()
        V, W, Q = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
        W_other = method_spaces(build_structured(nx, ny, rect), "taylor-hood", "dg1")[1]
        u_h, p_h = interpolate(V, case.u), interpolate(Q, case.p)
        w_other = interpolate(W_other, case.omega)
        with pytest.raises(ValueError, match="must live on one mesh"):
            error_norms(u_h, w_other, p_h, case)
        w_h = interpolate(W, case.omega)
        assert error_norms(u_h, w_h, p_h, case)[1] == l2_error(w_h, case.omega, default_quad_degree(V) + 3)


    @pytest.mark.parametrize("family, vorticity", [("taylor-hood", "dg1"), ("mini", "cg1"), ("bernardi-raugel", "dg0")])
    def test_div_norm_is_exact_at_the_assembly_degree(self, family, vorticity):
        # div u_h is a polynomial on each cell whose square the assembly rule integrates
        # exactly: a rule three degrees higher gives the same norm
        V = method_spaces(build_structured(8, 8), family, vorticity)[0]
        u_h = DiscreteField(V, np.random.default_rng(8).standard_normal(V.n_dofs))
        quad = CellQuadrature(V.mesh, default_quad_degree(V) + 3)
        higher = math.sqrt(quad.integrate(lambda at: np.trace(at(u_h, True)[1], axis1=2, axis2=3) ** 2)[0])
        assert abs(div_norm(u_h) - higher) <= 1e-12 * higher


class TestEOC:
    def test_tabulated_error_pair(self):
        rates = eoc([2.49e-1, 5.78e-2], [0.354, 0.177])
        assert rates[0] == pytest.approx(2.11, abs=0.02)

    def test_exact_halving_orders(self):
        assert eoc([3.0, 0.75], [0.5, 0.25]) == [2.0]
        assert eoc([3.0, 1.5], [0.5, 0.25]) == [1.0]

    def test_zero_error_gives_nan(self):
        with pytest.warns(UserWarning):
            rates = eoc([1.0, 0.0], [0.5, 0.25])
        assert math.isnan(rates[0])

    def test_invariant_under_error_rescaling(self):
        errs = [7.3e-1, 2.1e-1, 5.2e-2, 1.4e-2]
        hs = [0.8, 0.4, 0.2, 0.1]
        base = eoc(errs, hs)
        assert eoc([4.0 * e for e in errs], hs) == base  # power of two: bitwise
        scaled = eoc([3.0 * e for e in errs], hs)
        assert np.allclose(scaled, base, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            eoc([1.0], [0.5])
        with pytest.raises(ValueError):
            eoc([1.0, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            eoc([1.0, 0.5, 0.2], [0.5, 0.25])


class TestRunConvergence:
    def test_two_level_taylor_hood(self):
        report = run_convergence("taylor-hood", levels=2)
        assert [dof for _, dof in report.levels] == [84, 284]
        assert not report.partial
        assert all(it <= 6 for it in report.iterations)
        for got, ref in zip(report.errors[1], (2.49e-1, 1.41e-1, 4.64e-2)):
            assert ref / 2.0 <= got <= 2.0 * ref
        assert len(report.rates) == 1

    def test_picard_variant(self):
        from vvpflow.solver import NonlinearSettings

        report = run_convergence(
            "taylor-hood",
            levels=2,
            settings=NonlinearSettings(method="picard", tol=1e-8, max_iters=30),
        )
        assert not report.partial
        for got, ref in zip(report.errors[1], (2.49e-1, 1.41e-1, 4.64e-2)):
            assert ref / 2.0 <= got <= 2.0 * ref

    def test_errors_decrease_across_levels(self):
        report = run_convergence("mini", levels=3)
        cols = np.array(report.errors)
        assert np.all(cols[1:] < cols[:-1])

    def test_continuous_vorticity_variant(self):
        # continuous P1 vorticity carries second-order rates like the
        # discontinuous default (its coarse-level constants are larger)
        report = run_convergence("taylor-hood", levels=4, vorticity="cg1")
        assert not report.partial
        errs = np.array(report.errors)
        assert np.all(errs[1:] < errs[:-1])
        for rate in report.rates[-1]:
            assert 1.8 <= rate <= 3.0

    def test_continuous_vorticity_six_levels(self):
        # on to n = 64 the final pair of levels shows second order in all three norms
        report = run_convergence("taylor-hood", 6, vorticity="cg1")
        assert not report.partial and all(it <= 6 for it in report.iterations)
        errs = np.array(report.errors)
        assert np.all(errs[1:] < errs[:-1])
        assert all(rate >= 1.9 for rate in report.rates[-1])

    def test_level_validation(self):
        with pytest.raises(ValueError):
            run_convergence("taylor-hood", levels=1)

    @pytest.mark.parametrize("levels", [3.0, 2.5, "3", True, 0, np.float64(2.0)])
    def test_levels_that_are_no_integer_of_at_least_two_are_named(self, levels):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(levels))}"):
            run_convergence("taylor-hood", levels=levels)

    def test_numpy_integer_levels_run(self):
        report = run_convergence("taylor-hood", levels=np.int64(2))
        assert [dof for _, dof in report.levels] == [84, 284]

    def test_the_report_reads_its_levels_solve_reports(self):
        report = run_convergence("taylor-hood", levels=3)
        assert len(report.reports) == 3 and report.iterations == [rep.iterations for rep in report.reports]
        assert report.converged == [True] * 3 and not report.partial
        assert report.final_residuals == [rep.residual_history[-1] for rep in report.reports]
        hs = [h for h, _ in report.levels]
        assert report.rates == list(zip(*(eoc(col, hs) for col in zip(*report.errors))))


@pytest.mark.parametrize("family, vorticity", [("mini", "cg1"), ("bernardi-raugel", "cg1"),
                                               ("bernardi-raugel", "dg0")])
def test_the_unpinned_proven_pairings_reach_first_order(family, vorticity):
    # n = 2 .. 64.  The errors decay from n = 4 on: BR/dg0's e_u rises from n = 2 to n = 4 (1.46 to 2.87)
    report = run_convergence(family, levels=6, vorticity=vorticity)
    assert all(rep.converged and rep.iterations <= 6 for rep in report.reports)
    errors = np.array(report.errors[1:])
    assert np.all(errors[1:] < errors[:-1])
    assert min(report.rates[-1]) >= 0.9, report.rates[-1]


class TestGalerkinOrthogonalityProxy:
    def test_solver_beats_interpolation_residual(self):
        case = example1_case_2d()
        coeffs = coefficients_from_case(case)
        res_interp = []
        for n in (4, 8):
            spaces = method_spaces(build_structured(n, n), "taylor-hood", "dg1")
            state = np.concatenate(
                [
                    interpolate(spaces[0], case.u).coefficients,
                    interpolate(spaces[1], case.omega).coefficients,
                    interpolate(spaces[2], case.p).coefficients,
                    [0.0],
                ]
            )
            _, residual = assemble_newton(
                spaces, coeffs, state, pressure_target=case.pressure_integral
            )
            res_interp.append(np.abs(residual).max())
        assert res_interp[1] < res_interp[0]  # interpolant residual refines away
        assert res_interp[1] > 1e-4  # but stays far above solver tolerance

        spaces = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")
        _, _, _, rep = solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        assert rep.residual_history[-1] <= 1e-8 < res_interp[1]


def test_forcing_is_the_einsum_form_bit_for_bit():
    case = example1_case_2d()
    x, y = RNG.random((2, 40, 7))
    gu, gnu = case.grad_u(x, y), case.grad_nu(x, y)
    gw = case.grad_omega(x, y)
    eps = 0.5 * (gu + np.swapaxes(gu, -1, -2))
    expected = (
        case.sigma(x, y)[..., None] * case.u(x, y)
        + case.nu(x, y)[..., None] * np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
        + np.einsum("...ij,...j->...i", gu, case.u(x, y))
        - 2.0 * np.einsum("...ij,...j->...i", eps, gnu)
        + case.grad_p(x, y)
    )
    assert np.array_equal(forcing_from_momentum(case, x, y), expected)


def test_gram_norm_cross_checks_direct_quadrature():
    # same discrete field, two independent integration paths
    case = example1_case_2d()
    coeffs = coefficients_from_case(case)
    spaces = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")
    u_h, w_h, _, _ = solve_newton(
        spaces, coeffs, g=case.u, pressure_target=case.pressure_integral
    )
    diff = interpolate(spaces[0], case.u).coefficients - u_h.coefficients

    gram = assemble_gram_X(spaces)
    x = np.concatenate([diff, np.zeros(spaces[1].n_dofs)])
    gram_norm = math.sqrt(x @ (gram @ x))

    from vvpflow.spaces import DiscreteField

    zero_case_norm = velocity_error_norm(
        DiscreteField(spaces[0], -diff),
        polynomial_zero_case(),
        quad_degree=9,
    )
    assert gram_norm == pytest.approx(zero_case_norm, rel=1e-10)

    # and the interpolant-error proxy agrees with the analytic error
    # to within its own approximation quality
    e_u = velocity_error_norm(u_h, case, quad_degree=9)
    assert 0.5 * e_u < gram_norm < 2.0 * e_u


def polynomial_zero_case():
    """Zero exact solution: turns velocity_error_norm into a field norm."""
    zero2 = lambda x, y: np.zeros(np.shape(x) + (2,))
    zero = lambda x, y: np.zeros_like(x)
    return ManufacturedCase(
        name="zero",
        rect=(0.0, 0.0, 1.0, 1.0),
        u=zero2,
        grad_u=lambda x, y: np.zeros(np.shape(x) + (2, 2)),
        p=zero,
        grad_p=zero2,
        omega=zero,
        grad_omega=zero2,
        nu=lambda x, y: np.ones_like(x),
        grad_nu=zero2,
        sigma=lambda x, y: np.ones_like(x),
        nu0=1.0,
        nu1=1.0,
        sigma0=1.0,
        sigma1=1.0,
    )


class TestCavity:
    def test_coefficient_ranges(self):
        coeffs = cavity_coefficients(nu0=0.002)
        x = 2.0 * RNG.random(200)
        y = RNG.random(200)
        nu = coeffs.nu(x, y)
        assert nu.min() >= 0.002 - 1e-15
        assert nu.max() <= 0.004 + 1e-15
        assert coeffs.nu(0.0, 0.0) == pytest.approx(0.002)
        assert coeffs.nu(2.0, 1.0) == pytest.approx(0.004)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            run_cavity(4, 4)

    def test_small_run_converges_with_zero_pressure_mean(self):
        from vvpflow.verify import integral

        fields, rep = run_cavity(16, 8)
        assert rep.converged
        p = fields["pressure"]
        p_norm = l2_error(p, lambda x, y: np.zeros_like(x), quad_degree=4)
        assert abs(integral(p)) <= 1e-10 * p_norm


@pytest.mark.parametrize("perm", [0.0, -0.1, math.nan])
@pytest.mark.parametrize("case", [example1_case_2d, cavity_coefficients])
def test_a_permeability_outside_zero_to_infinity_is_rejected(case, perm):
    with pytest.raises(ValueError, match="perm must satisfy 0 < perm < inf"):
        case(perm=perm)


def test_example1_forcing_is_the_momentum_forcing_bit_for_bit():
    # the case's f shares its sines and cosines across fields; it must give
    # the floats of forcing_from_momentum over the case's own callables, and
    # those must be the closed forms evaluated term by term
    case = example1_case_2d()
    x, y = RNG.random((2, 64, 9)) * 1.4 - 0.2
    pi = np.pi
    sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
    closed = {
        "u": np.stack([np.cos(pi * x) * np.sin(pi * y), -np.sin(pi * x) * np.cos(pi * y)], axis=-1),
        "grad_u": np.stack([np.stack([-pi * sx * sy, pi * cx * cy], axis=-1),
                            np.stack([-pi * cx * cy, pi * sx * sy], axis=-1)], axis=-2),
        "grad_p": np.stack([pi * np.cos(pi * x) * np.sin(pi * y), pi * np.sin(pi * x) * np.cos(pi * y)], axis=-1),
        "grad_omega": np.stack([2.0 * pi**2 * np.sin(pi * x) * np.cos(pi * y),
                                2.0 * pi**2 * np.cos(pi * x) * np.sin(pi * y)], axis=-1),
    }
    for name, expected in closed.items():
        assert np.array_equal(getattr(case, name)(x, y), expected), name
    assert np.array_equal(case.f(x, y), forcing_from_momentum(case, x, y))
    assert np.array_equal(case.f(x[0, 0], y[0, 0]), forcing_from_momentum(case, x[0, 0], y[0, 0]))


def test_convergence_report_checks():
    fields = dict(family="taylor-hood", vorticity="dg1", levels=[(0.5, 84), (0.25, 284)],
                  errors=[(0.5, 0.2, 0.1), (0.1, 0.05, 0.02)], reports=[SolveReport(), SolveReport()])
    ConvergenceReport(**fields)
    with pytest.raises(ValueError, match="negative"):
        ConvergenceReport(**{**fields, "errors": [(0.5, 0.2, 0.1), (0.1, -1e-3, 0.05)]})
