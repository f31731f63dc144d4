"""The three solve workloads, their seeded problem data and correctness gate.

Every workload calls vvpflow through module attributes at call time
(``vf.solve_newton`` rather than a name bound at import), so that a
traced run sees the wrappers ``spans.Tracer`` installs.

Seed 0 is the acceptance data exactly.  Any other seed draws the data
from a narrow range around it (Example 1: nu1 and perm within +-2%;
cavity: nu0 within +-2%), which keeps the Newton step counts and the
acceptance windows below valid.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

import vvpflow as vf
from vvpflow.mesh import geometry_arrays
from vvpflow.quadrature import physical_points
from vvpflow.verify import cavity_coefficients

TOL = 1e-8
DATA_SPREAD = 0.02
CAVITY_RECT = (0.0, 0.0, 2.0, 1.0)


@dataclass(frozen=True)
class Gate:
    """Acceptance windows a workload's result must meet."""

    max_newton: int | None = None
    finest_errors: tuple[float, float, float] | None = None  # each within 2x
    rate_window: tuple[float, float] | None = None  # final-pair rates
    pressure_mean_factor: float | None = None  # |int p| <= factor * ||p||_0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable  # (data, size) -> state: mesh, spaces and problem data
    solve: callable  # state -> Outcome: the solves and the accuracy figures
    size: int  # mesh cells per unit length (th, cavity) or study levels (br)
    toy_size: int
    gate: Gate
    toy_gate: Gate


@dataclass
class Outcome:
    """What the solve phase of one repetition produced."""

    solve_s: float
    solves: list  # (label, SolveReport)
    accuracy: dict  # err_u, err_w, err_p, div_u
    rates: tuple | None = None
    pressure_mean: tuple[float, float] | None = None  # (|int p|, ||p||_0)


def problem_data(seed: int) -> dict:
    """Example 1 and cavity data for a seed; seed 0 is the acceptance data."""
    if seed == 0:
        return {"nu1": 1.0, "perm": 0.1, "nu0_cavity": 0.002}
    rng = np.random.default_rng(seed)
    f = 1.0 + rng.uniform(-DATA_SPREAD, DATA_SPREAD, size=3)
    return {"nu1": 1.0 * f[0], "perm": 0.1 * f[1], "nu0_cavity": 0.002 * f[2]}


def _solve(spaces, coeffs, g, target, max_iters=25):
    t0 = time.perf_counter()
    u, w, p, rep = vf.solve_newton(
        spaces, coeffs, vf.NonlinearSettings(tol=TOL, max_iters=max_iters), g=g, pressure_target=target
    )
    return u, w, p, rep, time.perf_counter() - t0


def setup_taylor_hood(data, n):
    case = vf.example1_case_2d(nu1=data["nu1"], perm=data["perm"])
    spaces = vf.method_spaces(vf.build_structured(n, n), "taylor-hood", "dg1")
    return case, vf.coefficients_from_case(case), spaces


def solve_taylor_hood(state):
    """Taylor-Hood/dg1 Newton on Example 1, then the error norms."""
    case, coeffs, spaces = state
    u, w, p, rep, solve = _solve(spaces, coeffs, case.u, case.pressure_integral)
    e_u, e_w, e_p = vf.error_norms(u, w, p, case)
    return Outcome(
        solve_s=solve,
        solves=[(f"n={spaces[0].mesh.nx}", rep)],
        accuracy={"err_u": e_u, "err_w": e_w, "err_p": e_p, "div_u": vf.div_norm(u)},
    )


def setup_bernardi_raugel(data, levels):
    case = vf.example1_case_2d(nu1=data["nu1"], perm=data["perm"])
    meshes = [vf.build_structured(2 ** (k + 1), 2 ** (k + 1), case.rect) for k in range(levels)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dg1 vorticity is outside the proven pairings
        stack = [vf.method_spaces(m, "bernardi-raugel", "dg1") for m in meshes]
    return case, vf.coefficients_from_case(case), stack


def solve_bernardi_raugel(state):
    """The Bernardi-Raugel/dg1 study over n = 2, 4, ..., as run_convergence."""
    case, coeffs, stack = state
    solves, errors, solve = [], [], 0.0
    for spaces in stack:
        u, w, p, rep, dt = _solve(spaces, coeffs, case.u, case.pressure_integral)
        solve += dt
        solves.append((f"n={spaces[0].mesh.nx}", rep))
        errors.append(vf.error_norms(u, w, p, case))
    hs = [spaces[0].mesh.h for spaces in stack]
    rates = tuple(vf.eoc(col, hs)[-1] for col in zip(*errors))
    e_u, e_w, e_p = errors[-1]
    return Outcome(
        solve_s=solve,
        solves=solves,
        accuracy={"err_u": e_u, "err_w": e_w, "err_p": e_p, "div_u": vf.div_norm(u)},
        rates=rates,
    )


def setup_cavity(data, ny):
    coeffs = cavity_coefficients(nu0=data["nu0_cavity"])
    spaces = vf.method_spaces(vf.build_structured(2 * ny, ny, CAVITY_RECT), "mini", "cg1")
    return coeffs, spaces


def solve_cavity(state):
    """MINI/cg1 lid-driven cavity on (0,2)x(0,1), as run_cavity.

    There is no exact solution, so err_u, err_w and err_p are the strong
    defects of the equations in the u, w and p row blocks: momentum,
    w = curl u and div u = 0.  Each vanishes for the exact flow.
    """
    coeffs, spaces = state
    u, w, p, rep, solve = _solve(spaces, coeffs, {"top": (1.0, 0.0)}, 0.0, max_iters=50)
    div_u = vf.div_norm(u)
    p_mean = abs(vf.verify.integral(p))
    p_norm = vf.verify.l2_error(p, lambda x, y: np.zeros_like(x), quad_degree=4)
    momentum, constitutive = equation_defects(u, w, p, coeffs)
    mesh = spaces[0].mesh
    return Outcome(
        solve_s=solve,
        solves=[(f"{mesh.nx}x{mesh.ny}", rep)],
        accuracy={"err_u": momentum, "err_w": constitutive, "err_p": div_u, "div_u": div_u},
        pressure_mean=(p_mean, p_norm),
    )


def equation_defects(u, w, p, coeffs, chunk=512):
    """Broken L2 norms of the momentum residual
    sigma u + nu curl w + (u . grad) u - 2 eps(u) grad nu + grad p - f
    and of w - curl u, cell by cell at the assembly quadrature degree."""
    mesh = u.space.mesh
    rule = vf.quadrature(vf.default_quad_degree(u.space))
    tabs = [vf.spaces.tabulate(f.space, rule.points) for f in (u, w, p)]
    jac, inv, det = geometry_arrays(mesh)
    momentum = constitutive = 0.0
    for c0 in range(0, mesh.n_cells, chunk):
        cells = np.arange(c0, min(c0 + chunk, mesh.n_cells))
        wdet = rule.weights[None, :] * det[cells, None]
        xq = physical_points(rule, jac[cells], mesh.vertices[mesh.cells[cells, 0]])
        x, y = xq[..., 0], xq[..., 1]
        uv, gu = vf.spaces.eval_field(u, tabs[0], cells, inv[cells], grad=True)
        wv, gw = vf.spaces.eval_field(w, tabs[1], cells, inv[cells], grad=True)
        _, gp = vf.spaces.eval_field(p, tabs[2], cells, inv[cells], grad=True)
        nu = coeffs.nu(x, y)[..., None]
        eps = 0.5 * (gu + np.swapaxes(gu, -1, -2))
        res = (
            coeffs.sigma(x, y)[..., None] * uv
            + nu * np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
            + np.einsum("cqij,cqj->cqi", gu, uv)
            - 2.0 * np.einsum("cqij,cqj->cqi", eps, coeffs.grad_nu(x, y))
            + gp
            - coeffs.f(x, y)
        )
        curl_defect = wv - (gu[..., 1, 0] - gu[..., 0, 1])
        momentum += float(np.einsum("cq,cqi,cqi->", wdet, res, res))
        constitutive += float(np.einsum("cq,cq,cq->", wdet, curl_defect, curl_defect))
    return math.sqrt(momentum), math.sqrt(constitutive)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="th-newton-64",
            setup=setup_taylor_hood,
            solve=solve_taylor_hood,
            size=64,
            toy_size=8,
            gate=Gate(max_newton=6, finest_errors=(7.50e-4, 5.09e-4, 1.01e-4)),
            toy_gate=Gate(max_newton=6, finest_errors=(5.81e-2, 3.29e-2, 6.73e-3)),
        ),
        Workload(
            name="mini-cavity-64x32",
            setup=setup_cavity,
            solve=solve_cavity,
            size=32,
            toy_size=8,
            gate=Gate(pressure_mean_factor=1e-10),
            toy_gate=Gate(pressure_mean_factor=1e-10),
        ),
        Workload(
            name="br-study-6",
            setup=setup_bernardi_raugel,
            solve=solve_bernardi_raugel,
            size=6,
            toy_size=3,
            gate=Gate(max_newton=6, rate_window=(0.90, 1.10)),
            toy_gate=Gate(max_newton=6, rate_window=(0.90, 1.10)),
        ),
    )
}


def gate_failures(outcome: Outcome, gate: Gate) -> list[str]:
    """Every way the outcome misses the gate; an empty list passes."""
    bad = []
    for label, rep in outcome.solves:
        final = rep.residual_history[-1]
        if not rep.converged or final > TOL:
            bad.append(f"{label}: not converged (final residual {final:.3e}, failure {rep.failure})")
        if gate.max_newton is not None and rep.iterations > gate.max_newton:
            bad.append(f"{label}: {rep.iterations} Newton steps > {gate.max_newton}")
    if gate.finest_errors is not None:
        got = (outcome.accuracy["err_u"], outcome.accuracy["err_w"], outcome.accuracy["err_p"])
        for field_name, e, ref in zip("uwp", got, gate.finest_errors):
            if not ref / 2.0 <= e <= 2.0 * ref:
                bad.append(f"err_{field_name} = {e:.3e} not within 2x of {ref:.3e}")
    if gate.rate_window is not None:
        lo, hi = gate.rate_window
        for field_name, r in zip("uwp", outcome.rates):
            if not lo <= r <= hi:
                bad.append(f"final-pair rate of {field_name} = {r:.3f} outside [{lo}, {hi}]")
    if gate.pressure_mean_factor is not None:
        mean, norm = outcome.pressure_mean
        if not mean <= gate.pressure_mean_factor * norm:
            bad.append(f"|int p| = {mean:.3e} exceeds {gate.pressure_mean_factor:g} ||p||_0 = {norm:.3e}")
    if not all(math.isfinite(v) and v > 0.0 for v in outcome.accuracy.values()):
        bad.append(f"accuracy figures not finite and positive: {outcome.accuracy}")
    return bad
