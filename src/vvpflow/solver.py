"""Nonlinear and linear solves, plus small-data diagnostics.

The nonlinear problem is solved either by a Picard loop (refreezing the
advecting field at the previous velocity) or by Newton's method from a
zero initial state with the boundary values lifted in.  Both methods
stop when the full nonlinear residual drops below the tolerance in
either absolute or relative (to the first residual) max norm, whichever
triggers first.  A run that uses up its iterations, meets a non-finite
residual or cannot solve a linear system stops with the reason in
``SolveReport.failure``.

Each linear system is solved directly.  Above 2,000 unknowns the
cell-local unknowns (dg vorticity, MINI bubbles) are eliminated cell by
cell with batched inverses of their blocks (static condensation: Wilson,
IJNME 8, 1974), and SuperLU factors only the Schur complement, in
nested-dissection order with static pivots.  Iterative refinement always
runs against the full matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem, ProblemCoefficients, SystemAssembler, apply_dirichlet
from .quadrature import CellQuadrature
from .spaces import DiscreteField, boundary_values

LINEAR_RESIDUAL_FACTOR = 1e-10


class SolverFailure(RuntimeError):
    """Linear factorisation or substitution failed to meet its contract."""


#: The linearisations of the nonlinear loop.
METHODS = ("newton", "picard")


@dataclass
class NonlinearSettings:
    method: str = "newton"
    tol: float = 1e-8
    max_iters: int = 25
    initial_guess: DiscreteField | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown nonlinear method {self.method!r}")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    linear_stats: dict = field(default_factory=dict)
    velocity_increments: list[float] = field(default_factory=list)
    multiplier: float = 0.0
    failure: str | None = None


def _refined_solve(factor_of: sp.csc_matrix, a: sp.spmatrix, b: np.ndarray, norm_a: float, expand=None,
                   **factor_opts):
    """Factor ``factor_of``, refine against the true matrix ``a``.

    ``expand(lu, r)``, when given, solves ``a`` for ``r`` with the factor of
    a condensed matrix; by default the factor solves ``a`` itself.
    Returns (x, fill, None) when the residual contract is met, else
    (None, fill, reason).
    """
    try:
        lu = spla.splu(factor_of, **factor_opts)
    except (RuntimeError, ValueError) as exc:
        return None, 0, str(exc)
    fill = int(getattr(lu, "nnz", 0))
    solve = lu.solve if expand is None else (lambda r: expand(lu, r))
    x = solve(b)
    for _ in range(8):
        if not np.all(np.isfinite(x)):
            return None, fill, "factorisation produced non-finite values"
        res = b - a @ x
        bound = LINEAR_RESIDUAL_FACTOR * (norm_a * np.abs(x).max() + np.abs(b).max())
        if np.abs(res).max() <= bound:
            return x, fill, None
        x = x + solve(res)
    return None, fill, f"refined residual {np.abs(b - a @ x).max():.3e} exceeds the contract bound"


def _condense(a: sp.csr_matrix, local: np.ndarray, order: np.ndarray, shift_below: float):
    """Eliminate the cell-local unknowns ``local`` (nc, k) of ``a`` cell by cell.

    With L the local and G the other unknowns, in the order they take in
    ``order``, returns the Schur complement S = A_GG - A_GL A_LL^-1 A_LG in
    CSC, with ``shift_below`` added to its diagonal entries smaller than
    that, and ``expand(lu, r)``, which solves ``a x = r`` given the factor of
    S.  A_LL is block diagonal, one (k, k) block per cell, and is inverted
    batched; a singular block raises ``np.linalg.LinAlgError``.
    """
    (nc, k), flat = local.shape, local.ravel()
    is_local = np.zeros(a.shape[0], dtype=bool)
    is_local[flat] = True
    rest = order[~is_local[order]]
    a_g, a_l = a[rest], a[flat]
    gl, lg, ll = a_g[:, flat], a_l[:, rest], a_l[:, flat].tocoo()
    blocks = np.zeros((nc, k, k))
    blocks[ll.row // k, ll.row % k, ll.col % k] = ll.data
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.linalg.slogdet(blocks)[0] == 0.0)
        reason = f"singular cell-local block in {len(bad)} of {nc} cells {bad[:5].tolist()}"
        raise np.linalg.LinAlgError(reason) from None
    nl = len(flat)
    cell_cols = np.repeat(np.arange(nl).reshape(nc, 1, k), k, axis=1).ravel()
    schur = a_g[:, rest] - gl @ (sp.csr_matrix((inv.ravel(), cell_cols, np.arange(nl + 1) * k), shape=(nl, nl)) @ lg)
    schur = (schur + sp.diags(np.where(np.abs(schur.diagonal()) < shift_below, shift_below, 0.0))).tocsc()

    def expand(lu, r):
        y = (inv @ r[local][..., None]).ravel()
        x = np.empty(len(r))
        x[rest] = lu.solve(r[rest] - gl @ y)
        x[flat] = y - (inv @ (lg @ x[rest]).reshape(nc, k, 1)).ravel()
        return x

    return schur, expand


def solve_linear(system: AssembledSystem, stats: dict | None = None) -> np.ndarray:
    """Direct sparse solve with iterative refinement.

    Contract: the returned x satisfies
    ||A x - b||_inf <= 1e-10 (||A||_inf ||x||_inf + ||b||_inf).

    Assembled systems carry their cell-local unknowns and an elimination
    order that puts them first, then nested dissection with the multiplier
    last.  Above 2,000 unknowns the local unknowns are condensed out and the
    Schur complement is factored in that order with static pivots
    (structurally zero diagonals are lifted by a tiny shift, and refinement
    against the full unshifted matrix restores full accuracy); a system
    without local unknowns takes the same path.  The stock column ordering
    of the full matrix remains as a fallback, counted in
    ``stats["fallbacks"]`` with the reason the first path failed (a singular
    local block is one) in ``stats["fallback_reason"]``; if it fails too,
    the error names both reasons.  ``stats``, when given, accumulates fill
    (of the factor), condensed unknowns and solve counters.
    """
    if not system.bc_applied:
        raise ValueError("apply Dirichlet data before solving")
    b = system.rhs
    a = system.matrix.tocsr()
    norm_a = float(np.abs(a).sum(axis=1).max())
    stats = {} if stats is None else stats

    def book(**counts):
        for key, count in counts.items():
            stats[key] = stats.get(key, 0) + count

    nd_reason = None
    if system.ordering is not None and system.n > 2000:
        try:
            schur, expand = _condense(a, system.local, system.ordering, 1e-8 * norm_a)
        except np.linalg.LinAlgError as exc:
            nd_reason = str(exc)
        else:
            x, fill, nd_reason = _refined_solve(
                schur, a, b, norm_a, expand=expand,
                permc_spec="NATURAL", options={"SymmetricMode": True, "DiagPivotThresh": 0.0},
            )
            if x is not None:
                book(n_solves=1, fill=fill, condensed=system.local.size)
                return x
        book(fallbacks=1)
        stats["fallback_reason"] = nd_reason
    x, fill, reason = _refined_solve(a.tocsc(), a, b, norm_a)
    if x is None:
        if nd_reason is not None:
            reason = f"{reason} (after the nested-dissection path failed: {nd_reason})"
        raise SolverFailure(f"sparse direct solve failed: {reason}")
    book(n_solves=1, fill=fill)
    return x


def _velocity_norm(gram, du, n_u, n_w):
    z = np.zeros(n_u + n_w)
    z[:n_u] = du
    return float(np.sqrt(z @ (gram @ z)))


def _solve_nonlinear(spaces, coeffs, settings, g, pressure_target):
    """Both linearisations in one loop.  Each state is assembled once; the
    Oseen matrix gives the residual, and Picard solves it for the next
    state while Newton solves the Jacobian system for the update."""
    assembler = SystemAssembler(spaces, coeffs)
    o = assembler.block_index
    V = assembler.V
    gram = assembler.gram_x()
    report = SolveReport(linear_stats={"n_solves": 0, "fill": 0, "condensed": 0, "fallbacks": 0, "factor_time": 0.0,
                                       "ordering_time": 0.0})
    newton = settings.method == "newton"
    state = np.zeros(o[4])
    if settings.initial_guess is not None:
        state[: o[1]] = settings.initial_guess.coefficients
    state[V.dirichlet_dofs] = boundary_values(V, g)
    # the fixed-point loop starts from the zero advecting field
    beta = state[: o[1]] if newton or settings.initial_guess is not None else np.zeros(o[1])

    while True:
        conv = assembler._convection(DiscreteField(V, beta), newton=newton)
        system = assembler.oseen(conv_triplets=conv[:3], pressure_target=pressure_target)
        report.linear_stats["ordering_time"] += assembler.ordering_time
        res = system.rhs - system.matrix @ state
        res[V.dirichlet_dofs] = 0.0
        res_norm = float(np.abs(res).max())
        report.residual_history.append(res_norm)
        if not np.isfinite(res_norm):
            report.failure = f"non-finite residual at iteration {report.iterations}"
            break
        # absolute or relative to the first residual, whichever is looser
        if report.iterations and res_norm <= settings.tol * max(1.0, report.residual_history[0]):
            report.converged = True
            break
        if report.iterations == settings.max_iters:
            report.failure = f"no convergence in {settings.max_iters} iterations (last residual {res_norm:.3e})"
            break
        t0 = time.perf_counter()
        try:
            if newton:
                # homogeneous elimination: the state already satisfies the data
                jac = AssembledSystem(assembler.jacobian(conv), res, o, ordering=system.ordering, local=system.local)
                new_state = state + solve_linear(apply_dirichlet(jac, V, None), stats=report.linear_stats)
            else:
                new_state = solve_linear(apply_dirichlet(system, V, g), stats=report.linear_stats)
        except SolverFailure as exc:
            # report the breakdown instead of raising: the caller sees a
            # non-converged history and the failure note
            report.failure = str(exc)
            break
        report.linear_stats["factor_time"] += time.perf_counter() - t0
        du = new_state[: o[1]] - state[: o[1]]
        report.velocity_increments.append(_velocity_norm(gram, du, o[1], o[2] - o[1]))
        state = new_state
        beta = state[: o[1]]
        report.iterations += 1

    u, w, p, report.multiplier = system.split(state)
    return DiscreteField(V, u), DiscreteField(assembler.W, w), DiscreteField(assembler.Q, p), report


def solve_picard(spaces, coeffs, settings=None, g=None, pressure_target: float = 0.0):
    """Fixed-point iteration on the advecting velocity.

    Non-convergence within ``max_iters`` is reported, not raised.
    """
    settings = settings or NonlinearSettings(method="picard")
    if settings.method != "picard":
        raise ValueError("settings.method must be 'picard'")
    return _solve_nonlinear(spaces, coeffs, settings, g, pressure_target)


def solve_newton(spaces, coeffs, settings=None, g=None, pressure_target: float = 0.0):
    """Newton's method on the assembled residual, zero initial state."""
    settings = settings or NonlinearSettings(method="newton")
    if settings.method != "newton":
        raise ValueError("settings.method must be 'newton'")
    return _solve_nonlinear(spaces, coeffs, settings, g, pressure_target)


# ---------------------------------------------------------------------------
# small-data diagnostics


@dataclass
class DiagnosticsConfig:
    """User-supplied constants entering the solvability conditions.

    The embedding constants are domain dependent and not computable here;
    the defaults make the report a qualitative indicator only.
    """

    C_r: float = 1.0
    C_4: float = 1.0
    r: float = 4.0
    delta: float = 1.0
    grad_nu_Lrstar: float = 0.0

    def __post_init__(self):
        if self.r <= 2.0:
            raise ValueError("the exponent r must exceed 2")
        if self.delta <= 0.0:
            raise ValueError("the ball radius delta must be positive")

    @property
    def r_star(self) -> float:
        return 2.0 * self.r / (self.r - 2.0)


@dataclass
class SmallDataReport:
    alpha: float
    alpha_bar: float
    kappa: float
    min_term: float
    subtrahend: float
    ellipticity_ok: bool
    delta_ok: bool
    data_ok: bool
    delta_limit: float
    f_bound: float


def lp_norm(mesh, fn, p: float, quad_degree: int) -> float:
    """|| |fn| ||_{0, p} over the mesh by quadrature, for a vectorized
    point function ``fn`` with two components."""

    def integrand(cells, wdet, xq, inv):
        v = np.asarray(fn(xq[..., 0], xq[..., 1]), dtype=float)
        return np.einsum("cq,cq->", wdet, np.hypot(v[..., 0], v[..., 1]) ** p)

    return CellQuadrature(mesh, quad_degree).integrate(integrand) ** (1.0 / p)


def grad_nu_norm(mesh, coeffs: ProblemCoefficients, r_star: float, quad_degree: int = 8) -> float:
    """|| grad nu ||_{0, r*} over the mesh by quadrature."""
    return 0.0 if coeffs.grad_nu is None else lp_norm(mesh, coeffs.grad_nu, r_star, quad_degree)


def check_small_data(coeffs: ProblemCoefficients, diag: DiagnosticsConfig, f_norm: float) -> SmallDataReport:
    """Evaluate the fixed-point solvability conditions (advisory only).

    alpha = min{sigma0, kappa2/2, kappa1 - 3 kappa1^2 / (4 nu0)}
            - C_r^2 d^((r-2)/r) ||grad nu||_{0,r*}^2 (1/kappa + 3/nu0)

    with kappa = min(kappa1, kappa2) and d = 2; alpha_bar = min(nu0/3,
    alpha).  The solver runs regardless of the verdicts: the conditions
    are sufficient, not necessary.
    """
    d = 2.0
    kappa = min(coeffs.kappa1, coeffs.kappa2)
    min_term = min(
        coeffs.sigma0,
        0.5 * coeffs.kappa2,
        coeffs.kappa1 - 3.0 * coeffs.kappa1**2 / (4.0 * coeffs.nu0),
    )
    subtrahend = (
        diag.C_r**2
        * d ** ((diag.r - 2.0) / diag.r)
        * diag.grad_nu_Lrstar**2
        * (1.0 / kappa + 3.0 / coeffs.nu0)
    )
    alpha = min_term - subtrahend
    alpha_bar = min(coeffs.nu0 / 3.0, alpha)
    delta_limit = alpha_bar / (diag.C_4**2 * np.sqrt(d))
    f_bound = 0.5 * alpha_bar * diag.delta
    return SmallDataReport(
        alpha=alpha,
        alpha_bar=alpha_bar,
        kappa=kappa,
        min_term=min_term,
        subtrahend=subtrahend,
        ellipticity_ok=bool(alpha > 0.0),
        delta_ok=bool(alpha > 0.0 and diag.delta < delta_limit),
        data_ok=bool(alpha > 0.0 and f_norm < f_bound),
        delta_limit=float(delta_limit),
        f_bound=float(f_bound),
    )
