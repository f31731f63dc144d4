"""Manufactured solutions, error norms, convergence studies, cavity demo.

Velocity errors are measured in the combined norm
(||e||^2 + ||curl e||^2 + ||div e||^2)^(1/2); vorticity and pressure in
plain L2.  Exact fields are evaluated analytically at elevated-degree
quadrature points, never interpolated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import ProblemCoefficients, default_quad_degree
from .mesh import build_structured
from .quadrature import CellQuadrature
from .solver import NonlinearSettings, SolveReport, solve_newton, solve_picard
from .spaces import DiscreteField, method_spaces


@dataclass(eq=False)
class ManufacturedCase:
    """Closed-form solution triple with enough derivatives to build f.

    All callables are vectorized over coordinate arrays; vector-valued
    ones return a trailing component axis (gradients return (..., 2, 2)
    with grad[..., i, j] = d u_i / d x_j).  The velocity must be
    divergence free and ``omega`` its scalar curl.
    """

    name: str
    rect: tuple[float, float, float, float]
    u: callable
    grad_u: callable
    p: callable
    grad_p: callable
    omega: callable
    grad_omega: callable
    nu: callable
    grad_nu: callable
    sigma: callable
    nu0: float
    nu1: float
    sigma0: float
    sigma1: float
    pressure_integral: float = 0.0
    f: callable = field(default=None)

    def __post_init__(self):
        if self.f is None:
            self.f = lambda x, y: forcing_from_momentum(self, x, y)


def forcing_from_momentum(case: ManufacturedCase, x, y) -> np.ndarray:
    """Body force making the case an exact solution of the momentum balance:

    f = sigma u + nu curl omega + (u . grad) u - 2 eps(u) grad nu + grad p,

    where curl of the scalar vorticity is (dy omega, -dx omega) and
    eps(u) is the symmetric velocity gradient.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fields = (case.u, case.grad_u, case.grad_omega, case.grad_p, case.nu, case.grad_nu, case.sigma)
    return _momentum(*(np.asarray(fn(x, y), dtype=float) for fn in fields))


def _momentum(u, gu, gw, gp, nu, gnu, sig) -> np.ndarray:
    """The forcing of :func:`forcing_from_momentum` from sampled fields."""
    curl_w = np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
    eps = 0.5 * (gu + np.swapaxes(gu, -1, -2))
    return sig[..., None] * u + nu[..., None] * curl_w + _matvec(gu, u) - 2.0 * _matvec(eps, gnu) + gp


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v over trailing (2, 2) and (2,) axes."""
    return m[..., 0] * v[..., None, 0] + m[..., 1] * v[..., None, 1]


def example1_case_2d(nu0: float = 0.1, nu1: float = 1.0, perm: float = 0.1) -> ManufacturedCase:
    """Smooth manufactured flow on the unit square with oscillatory viscosity.

    u = (cos(pi x) sin(pi y), -sin(pi x) cos(pi y)),
    p = sin(pi x) sin(pi y),
    nu = nu0 + (nu1 - nu0) cos^2(pi x y),    sigma = nu / perm.
    """
    _check_perm(perm)
    pi = np.pi
    dnu = nu1 - nu0

    # u, grad u, grad p and grad omega from the sines and cosines of pi x and pi y
    def trig(x, y):
        return np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)

    def u(sx, cx, sy, cy):
        return np.stack([cx * sy, -sx * cy], axis=-1)

    def grad_u(sx, cx, sy, cy):
        return np.stack([np.stack([-pi * sx * sy, pi * cx * cy], axis=-1),
                         np.stack([-pi * cx * cy, pi * sx * sy], axis=-1)], axis=-2)

    def grad_p(sx, cx, sy, cy):
        return np.stack([pi * cx * sy, pi * sx * cy], axis=-1)

    def grad_omega(sx, cx, sy, cy):
        return np.stack([2.0 * pi**2 * sx * cy, 2.0 * pi**2 * cx * sy], axis=-1)

    def of_xy(fn):
        return lambda x, y: fn(*trig(x, y))

    def p(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def omega(x, y):
        return -2.0 * pi * np.cos(pi * x) * np.cos(pi * y)

    def nu(x, y):
        return nu0 + dnu * np.cos(pi * x * y) ** 2

    def grad_nu(x, y):
        s2 = np.sin(2.0 * pi * x * y)
        return np.stack([-pi * dnu * s2 * y, -pi * dnu * s2 * x], axis=-1)

    def sigma(x, y):
        return nu(x, y) / perm

    def f(x, y):
        # forcing_from_momentum's operations, with each distinct sine and cosine evaluated once
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        t, nu_xy = trig(x, y), nu(x, y)
        return _momentum(u(*t), grad_u(*t), grad_omega(*t), grad_p(*t), nu_xy, grad_nu(x, y), nu_xy / perm)

    return ManufacturedCase(
        name="example1-2d",
        rect=(0.0, 0.0, 1.0, 1.0),
        u=of_xy(u),
        grad_u=of_xy(grad_u),
        p=p,
        grad_p=of_xy(grad_p),
        omega=omega,
        grad_omega=of_xy(grad_omega),
        nu=nu,
        grad_nu=grad_nu,
        sigma=sigma,
        nu0=nu0,
        nu1=nu1,
        sigma0=nu0 / perm,
        sigma1=nu1 / perm,
        pressure_integral=4.0 / np.pi**2,
        f=f,
    )


def _check_perm(perm: float):
    """Reject a permeability outside (0, inf): sigma = nu / perm must be positive and finite."""
    if not 0.0 < perm < math.inf:
        raise ValueError(f"perm must satisfy 0 < perm < inf, got {perm}")


def coefficients_from_case(
    case: ManufacturedCase, kappa1: float | None = None, kappa2: float | None = None
) -> ProblemCoefficients:
    """Problem data for a case, with the standard augmentation weights
    kappa1 = (2/3) nu0 and kappa2 = nu0 / 2 unless overridden."""
    return ProblemCoefficients(
        nu=case.nu,
        grad_nu=case.grad_nu,
        sigma=case.sigma,
        f=case.f,
        kappa1=(2.0 / 3.0) * case.nu0 if kappa1 is None else kappa1,
        kappa2=0.5 * case.nu0 if kappa2 is None else kappa2,
        nu0=case.nu0,
        nu1=case.nu1,
        sigma0=case.sigma0,
        sigma1=case.sigma1,
    )


# ---------------------------------------------------------------------------
# norms


def l2_error(field: DiscreteField, exact, quad_degree: int) -> float:
    """L2 distance between a discrete field and an analytic function."""
    return math.sqrt(CellQuadrature(field.space.mesh, quad_degree).integrate(_gap(field, exact))[0])


def velocity_error_norm(u_h: DiscreteField, case: ManufacturedCase, quad_degree: int) -> float:
    """Combined velocity error: L2 of the value, curl and divergence gaps (the exact curl is case.omega)."""
    return math.sqrt(CellQuadrature(u_h.space.mesh, quad_degree).integrate(_velocity_gap(u_h, case))[0])


def error_norms(u_h: DiscreteField, w_h: DiscreteField, p_h: DiscreteField, case: ManufacturedCase):
    """(e_u, e_w, e_p) against the case, at assembly degree + 3, in one pass over the cells."""
    quad = CellQuadrature(u_h.space.mesh, default_quad_degree(u_h.space) + 3)
    return tuple(map(math.sqrt, quad.integrate(_velocity_gap(u_h, case), _gap(w_h, case.omega), _gap(p_h, case.p))))


def _gap(field: DiscreteField, exact):
    """The density of the squared gap between ``field`` and the analytic ``exact``."""
    return lambda at: _squared(at(field) - at(exact))


def _velocity_gap(u_h: DiscreteField, case: ManufacturedCase):
    """The density of the squared gaps of ``u_h``'s value, curl and divergence from the case's."""

    def density(at):
        vals, g = at(u_h, True)
        return _squared(vals - at(case.u)) + (g[..., 1, 0] - g[..., 0, 1] - at(case.omega)) ** 2 + _div(g) ** 2

    return density


def _squared(v: np.ndarray) -> np.ndarray:
    """Pointwise squared magnitude of scalar (nc, npts) or vector (nc, npts, 2) samples."""
    return v**2 if v.ndim == 2 else v[..., 0] ** 2 + v[..., 1] ** 2


def _div(grads: np.ndarray) -> np.ndarray:
    return grads[..., 0, 0] + grads[..., 1, 1]


def div_norm(u_h: DiscreteField) -> float:
    """||div u_h||_0, at the assembly degree; the augmentation controls but never nullifies it."""
    quad = CellQuadrature(u_h.space.mesh, default_quad_degree(u_h.space))
    return math.sqrt(quad.integrate(lambda at: _div(at(u_h, True)[1]) ** 2)[0])


def integral(field: DiscreteField, quad_degree: int | None = None) -> float:
    """Integral of a scalar discrete field over the domain."""
    quad = CellQuadrature(field.space.mesh, 2 * field.space.element.degree if quad_degree is None else quad_degree)
    return quad.integrate(lambda at: at(field))[0]


def eoc(errors, hs) -> list[float]:
    """Observed decay rates log(e_i / e_{i+1}) / log(h_i / h_{i+1})."""
    errors = list(errors)
    hs = list(hs)
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/mesh-size lists of length >= 2")
    if any(hs[i + 1] >= hs[i] for i in range(len(hs) - 1)):
        raise ValueError("mesh sizes must decrease strictly")
    rates = []
    for i in range(len(errors) - 1):
        if errors[i] == 0.0 or errors[i + 1] == 0.0:
            warnings.warn("zero error value: rate reported as nan", stacklevel=2)
            rates.append(math.nan)
        else:
            rates.append(math.log(errors[i] / errors[i + 1]) / math.log(hs[i] / hs[i + 1]))
    return rates


# ---------------------------------------------------------------------------
# studies


@dataclass
class ConvergenceReport:
    family: str
    vorticity: str
    levels: list[tuple[float, int]]  # (h, system dofs)
    errors: list[tuple[float, float, float]]
    reports: list[SolveReport]  # one per level: the Newton counts are read from them, the rates from the errors

    def __post_init__(self):
        if any(e < 0.0 for row in self.errors for e in row):
            raise ValueError("error norms cannot be negative")

    @property
    def rates(self) -> list[tuple[float, float, float]]:
        """The observed orders (:func:`eoc`) of each consecutive level pair."""
        hs = [h for h, _ in self.levels]
        return list(zip(*(eoc(col, hs) for col in zip(*self.errors))))

    @property
    def iterations(self) -> list[int]:
        return [rep.iterations for rep in self.reports]

    @property
    def converged(self) -> list[bool]:
        return [rep.converged for rep in self.reports]

    @property
    def final_residuals(self) -> list[float]:
        return [rep.residual_history[-1] for rep in self.reports]

    @property
    def partial(self) -> bool:
        return not all(self.converged)


def run_convergence(
    family: str,
    levels: int = 6,
    case: ManufacturedCase | None = None,
    vorticity: str = "dg1",
    settings: NonlinearSettings | None = None,
    kappa1: float | None = None,
    kappa2: float | None = None,
) -> ConvergenceReport:
    """Solve on meshes n = 2, 4, ..., 2^levels and tabulate errors/rates."""
    if isinstance(levels, bool) or not (isinstance(levels, (int, np.integer)) and levels >= 2):  # a bool is an int
        raise ValueError(f"a convergence study needs at least two levels, an integer, got {levels!r}")
    case = case or example1_case_2d()
    coeffs = coefficients_from_case(case, kappa1=kappa1, kappa2=kappa2)
    settings = settings or NonlinearSettings(method="newton", tol=1e-8)
    solve = solve_newton if settings.method == "newton" else solve_picard

    sizes, errs, reports = [], [], []
    for level in range(levels):
        n = 2 ** (level + 1)
        mesh = build_structured(n, n, case.rect)
        spaces = method_spaces(mesh, family, vorticity)
        u_h, w_h, p_h, rep = solve(spaces, coeffs, settings, g=case.u, pressure_target=case.pressure_integral)
        sizes.append((mesh.h, sum(s.n_dofs for s in spaces) + 1))
        errs.append(error_norms(u_h, w_h, p_h, case))
        reports.append(rep)
    return ConvergenceReport(family, vorticity, sizes, errs, reports)


def cavity_coefficients(nu0: float = 0.002, perm: float = 0.1) -> ProblemCoefficients:
    """Wide-cavity data: nu = nu0 (1 + x y / 2) on (0,2)x(0,1), zero force,
    Brinkman term sigma = nu / perm."""
    _check_perm(perm)

    def nu(x, y):
        return nu0 * (1.0 + 0.5 * x * y)

    def grad_nu(x, y):
        return np.stack([0.5 * nu0 * y, 0.5 * nu0 * x], axis=-1)

    def sigma(x, y):
        return nu(x, y) / perm

    return ProblemCoefficients(
        nu=nu,
        grad_nu=grad_nu,
        sigma=sigma,
        f=lambda x, y: np.zeros(np.shape(x) + (2,)),
        kappa1=(2.0 / 3.0) * nu0,
        kappa2=0.5 * nu0,
        nu0=nu0,
        nu1=2.0 * nu0,
        sigma0=nu0 / perm,
        sigma1=2.0 * nu0 / perm,
    )


def run_cavity(
    nx: int = 64,
    ny: int = 32,
    nu0: float = 0.002,
    perm: float = 0.1,
    settings: NonlinearSettings | None = None,
):
    """Lid-driven wide cavity on (0,2)x(0,1) with MINI velocity and
    continuous P1 vorticity; returns the fields and the solve report.

    The lid moves with u = (1, 0); the discontinuous corner data is
    resolved by the tag application order (the lid value wins).  The mesh
    must have at least 8 x 8 cells.
    """
    if nx < 8 or ny < 8:
        raise ValueError(f"cavity resolution must be at least 8x8, got {nx}x{ny}")
    mesh = build_structured(nx, ny, (0.0, 0.0, 2.0, 1.0))
    spaces = method_spaces(mesh, "mini", "cg1")
    coeffs = cavity_coefficients(nu0=nu0, perm=perm)
    g = {"top": (1.0, 0.0)}
    settings = settings or NonlinearSettings(method="newton", tol=1e-8, max_iters=50)
    solve = solve_newton if settings.method == "newton" else solve_picard
    u_h, w_h, p_h, rep = solve(spaces, coeffs, settings, g=g, pressure_target=0.0)
    return {"velocity": u_h, "vorticity": w_h, "pressure": p_h}, rep
