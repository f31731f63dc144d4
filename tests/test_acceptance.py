"""Acceptance suite: one test per criterion, each printing a PASS line.

The three convergence studies (six levels, n = 2 .. 64) and the cavity
pair dominate the runtime; they are shared as module fixtures.
"""

import math
import time
import warnings

import numpy as np
import pytest

from assembled_parts import parts
from vvpflow.assembly import SystemAssembler
from vvpflow.mesh import build_structured, geometry_arrays
from vvpflow.quadrature import quadrature
from vvpflow.solver import NonlinearSettings, solve_newton, solve_picard
from vvpflow.spaces import DiscreteField, build_space, eval_field, interpolate, method_spaces, tabulate
from vvpflow.verify import (
    coefficients_from_case,
    div_norm,
    example1_case_2d,
    integral,
    l2_error,
    run_cavity,
    run_convergence,
)

RNG = np.random.default_rng(31415)

TH_DOFS = [84, 284, 1044, 4004, 15684, 62084]
MINI_DOFS = [68, 236, 884, 3428, 13508, 53636]
TH_FINEST_ERRORS = (7.50e-4, 5.09e-4, 1.01e-4)


def announce(criterion, text):
    print(f"[criterion {criterion}] PASS - {text}")


@pytest.fixture(scope="module")
def taylor_hood_report():
    return run_convergence("taylor-hood", levels=6)


@pytest.fixture(scope="module")
def mini_report():
    return run_convergence("mini", levels=6)


@pytest.fixture(scope="module")
def bernardi_raugel_report():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dg1 vorticity is outside the proven pairings
        return run_convergence("bernardi-raugel", levels=6)


@pytest.fixture(scope="module")
def cavity_runs():
    coarse = run_cavity(64, 32)
    fine = run_cavity(128, 64)
    return coarse, fine


def test_criterion_1_dof_reproduction():
    t0 = time.perf_counter()
    th, mini = [], []
    for level in range(6):
        mesh = build_structured(2 ** (level + 1), 2 ** (level + 1))
        th.append(sum(s.n_dofs for s in method_spaces(mesh, "taylor-hood", "dg1")) + 1)
        mini.append(sum(s.n_dofs for s in method_spaces(mesh, "mini", "dg1")) + 1)
    elapsed = time.perf_counter() - t0
    assert th == TH_DOFS
    assert mini == MINI_DOFS
    assert elapsed < 1.0
    announce(1, f"Taylor-Hood {th} and MINI {mini} DOF counts exact in {elapsed:.2f}s")


def test_criterion_2_taylor_hood_convergence(taylor_hood_report):
    rep = taylor_hood_report
    assert not rep.partial
    assert [d for _, d in rep.levels] == TH_DOFS
    errs = np.array(rep.errors)
    assert np.all(errs[1:] < errs[:-1])  # strict decay on every column
    final_rates = rep.rates[-1]
    for rate in final_rates:
        assert 1.85 <= rate <= 2.20
    for got, ref in zip(rep.errors[-1], TH_FINEST_ERRORS):
        assert ref / 2.0 <= got <= ref * 2.0
    announce(
        2,
        "Taylor-Hood final-pair rates (%.3f, %.3f, %.3f); finest errors %s within 2x of %s"
        % (*final_rates, ["%.2e" % e for e in rep.errors[-1]], list(TH_FINEST_ERRORS)),
    )


def test_criterion_3_mini_convergence(mini_report):
    rep = mini_report
    assert not rep.partial
    errs = np.array(rep.errors)
    assert np.all(errs[1:] < errs[:-1])
    r_u, r_w, r_p = rep.rates[-1]
    assert 0.90 <= r_u <= 1.10
    assert 0.90 <= r_w <= 1.10
    assert r_p >= 1.5  # pressure converges faster than first order
    announce(3, f"MINI final-pair rates u {r_u:.3f}, vorticity {r_w:.3f}, pressure {r_p:.3f}")


def test_criterion_4_bernardi_raugel_convergence(bernardi_raugel_report):
    rep = bernardi_raugel_report
    assert not rep.partial
    errs = np.array(rep.errors)
    assert np.all(errs[1:] < errs[:-1])
    for rate in rep.rates[-1]:
        assert 0.90 <= rate <= 1.10
    announce(4, "Bernardi-Raugel final-pair rates (%.3f, %.3f, %.3f)" % rep.rates[-1])


def test_criterion_5_newton_iteration_counts(
    taylor_hood_report, mini_report, bernardi_raugel_report
):
    for rep in (taylor_hood_report, mini_report, bernardi_raugel_report):
        assert all(rep.converged)
        assert all(it <= 6 for it in rep.iterations)
        assert all(res <= 1e-8 for res in rep.final_residuals)
    counts = [rep.iterations for rep in (taylor_hood_report, mini_report, bernardi_raugel_report)]
    announce(5, f"all solves reached 1e-8 within 6 Newton steps (counts {counts})")


def test_criterion_6_property_suite():
    case = example1_case_2d()
    coeffs = coefficients_from_case(case)
    mesh = build_structured(4, 4)
    spaces = method_spaces(mesh, "taylor-hood", "dg1")
    V = spaces[0]

    # block antisymmetry of the viscous coupling, bitwise
    system = parts(SystemAssembler(spaces, coeffs))
    assert (system["uw_nu"] + system["wu_nu"].T).count_nonzero() == 0

    # skew pairing of the convection form on zero-trace polynomial data
    beta = interpolate(V, lambda x, y: np.stack([x**2 + 2.0 * y, x + y], axis=-1))
    conv = parts(SystemAssembler(spaces, coeffs), beta)["uu_conv"]
    K = conv[: V.n_dofs, : V.n_dofs]
    free = np.setdiff1d(np.arange(V.n_dofs), V.dirichlet_dofs)
    u = np.zeros(V.n_dofs)
    v = np.zeros(V.n_dofs)
    u[free] = RNG.standard_normal(len(free))
    v[free] = RNG.standard_normal(len(free))
    rule = quadrature(6)
    jac, inv, det = geometry_arrays(mesh)
    tab = tabulate(V, rule.points)
    cells = np.arange(mesh.n_cells)
    _, gb = eval_field(beta, tab, cells, inv, grad=True)
    uu = eval_field(DiscreteField(V, u), tab, cells, inv)
    vv = eval_field(DiscreteField(V, v), tab, cells, inv)
    wdet = rule.weights[None, :] * det[:, None]
    pairing = float(
        np.einsum("cq,cq,cqi,cqi->", wdet, gb[..., 0, 0] + gb[..., 1, 1], uu, vv)
    )
    n1, n2 = float(v @ (K @ u)), float(u @ (K @ v))
    assert abs(n1 + n2 + pairing) / max(abs(n1), abs(n2)) < 1e-10

    # discrete curl/div identity for zero-trace velocity fields
    w = np.zeros(V.n_dofs)
    w[free] = RNG.standard_normal(len(free))
    _, gw = eval_field(DiscreteField(V, w), tab, cells, inv, grad=True)
    grad_sq = float(np.einsum("cq,cqij,cqij->", wdet, gw, gw))
    curl_sq = float(np.einsum("cq,cq,cq->", wdet, gw[..., 1, 0] - gw[..., 0, 1], gw[..., 1, 0] - gw[..., 0, 1]))
    div_sq = float(np.einsum("cq,cq,cq->", wdet, gw[..., 0, 0] + gw[..., 1, 1], gw[..., 0, 0] + gw[..., 1, 1]))
    assert abs(grad_sq - curl_sq - div_sq) / grad_sq < 1e-10

    # zero data produces the zero solution
    quiet = coefficients_from_case(case)
    quiet.f = lambda x, y: np.zeros(np.shape(x) + (2,))
    u0, w0, p0, rep0 = solve_newton(spaces, quiet)
    assert max(np.abs(u0.coefficients).max(), np.abs(w0.coefficients).max(), np.abs(p0.coefficients).max()) <= 1e-14

    # pressure integral pinned by the multiplier on every family's solve
    for family, vorticity in (("taylor-hood", "dg1"), ("mini", "dg1"), ("bernardi-raugel", "dg0")):
        sp_f = method_spaces(mesh, family, vorticity)
        _, _, p_h, _ = solve_newton(
            sp_f, coeffs, g=case.u, pressure_target=case.pressure_integral
        )
        p_norm = l2_error(p_h, lambda x, y: np.zeros_like(x), quad_degree=6)
        assert abs(integral(p_h) - case.pressure_integral) <= 1e-10 * p_norm

    # Picard and Newton land on the same discrete solution
    tight = dict(tol=1e-11, max_iters=60)
    un, wn, pn, _ = solve_newton(
        spaces, coeffs, NonlinearSettings(method="newton", **tight),
        g=case.u, pressure_target=case.pressure_integral,
    )
    up, wp, pp, rp = solve_picard(
        spaces, coeffs, NonlinearSettings(method="picard", **tight),
        g=case.u, pressure_target=case.pressure_integral,
    )
    assert rp.converged
    for a, b in ((un, up), (wn, wp), (pn, pp)):
        assert np.abs(a.coefficients - b.coefficients).max() < 1e-7

    # Jacobian matches a finite-difference directional derivative at O(eps^2)
    asm = SystemAssembler(spaces, coeffs)
    n = asm.block_index[4]
    state = np.zeros(n)
    state[: asm.block_index[1]] = 0.1 * RNG.standard_normal(asm.block_index[1])
    state[V.dirichlet_dofs] = 0.0
    delta = RNG.standard_normal(n)
    delta[V.dirichlet_dofs] = 0.0
    jac_sys, res0 = asm.newton_system(state)
    free_all = np.setdiff1d(np.arange(n), V.dirichlet_dofs)
    gaps = []
    for eps in (1e-3, 1e-4):
        _, res_eps = asm.newton_system(state + eps * delta)
        gaps.append(np.abs((res_eps - res0 + eps * (jac_sys.matrix @ delta))[free_all]).max())
    assert 80.0 < gaps[0] / gaps[1] < 120.0

    # Picard velocity increments contract on Example-1 data
    spaces8 = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")
    _, _, _, rep8 = solve_picard(
        spaces8, coeffs, NonlinearSettings(method="picard", tol=1e-8, max_iters=25),
        g=case.u, pressure_target=case.pressure_integral,
    )
    assert rep8.converged
    inc = rep8.velocity_increments
    rhos = [inc[k + 1] / inc[k] for k in range(len(inc) - 1)]
    assert all(r < 1.0 for r in rhos)

    announce(6, f"all structural properties hold (Picard contraction max rho {max(rhos):.3f})")


def test_criterion_7_cavity_demo(cavity_runs):
    (coarse_fields, coarse_rep), (fine_fields, fine_rep) = cavity_runs
    assert coarse_rep.converged and fine_rep.converged
    p = coarse_fields["pressure"]
    p_norm = l2_error(p, lambda x, y: np.zeros_like(x), quad_degree=4)
    assert abs(integral(p)) <= 1e-10 * p_norm
    d_coarse = div_norm(coarse_fields["velocity"])
    d_fine = div_norm(fine_fields["velocity"])
    assert d_fine < d_coarse
    announce(
        7,
        f"cavity 64x32 converged in {coarse_rep.iterations} steps; "
        f"||div u|| {d_coarse:.3f} -> {d_fine:.3f} under refinement",
    )


def test_criterion_8_scope_exclusions():
    # 3D accuracy study and the maze geometry are intentionally not
    # reproduced: the solver is two-dimensional by design
    with pytest.raises(TypeError):
        build_structured(4, 4, 4, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0))
    announce(8, "3D tables and the maze flow are documented as out of scope")
