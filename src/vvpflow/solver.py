"""Nonlinear and linear solves, plus small-data diagnostics.

The nonlinear problem is solved either by a Picard loop (refreezing the
advecting field at the previous velocity) or by Newton's method from a
zero initial state with the boundary values lifted in.  Both methods
stop when the full nonlinear residual drops below the tolerance in
either absolute or relative (to the first residual) max norm, whichever
triggers first.  A run that uses up its iterations, meets a non-finite
residual or cannot solve a linear system stops with the reason in
``SolveReport.failure``.

Each linear system is solved directly.  The cell-local unknowns (dg
vorticity, MINI bubbles) are eliminated cell by cell with batched
inverses of their blocks (static condensation: Wilson, IJNME 8, 1974),
and SuperLU factors only the Schur complement, in nested-dissection
order with static pivots.  Iterative refinement always runs against the
full matrix.

The nonlinear loop holds the last factor it made and refines each later
system against it while it contracts (the chord and Shamanskii variants
of Newton's method: Kelley, SIAM 2003, ch. 5); ``solve_linear`` says
when it refactors and what ``linear_stats`` counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem, ProblemCoefficients, SystemAssembler, apply_dirichlet, gram_values
from .quadrature import CellQuadrature
from .spaces import DiscreteField, boundary_values

LINEAR_RESIDUAL_FACTOR = 1e-10
#: Refinement steps (solves after the first) before a factor is given up.
REFINE_STEPS = 8
#: A held factor of an earlier matrix is refactored once a refinement step
#: cuts the residual by less than this.
STALE_CONTRACTION = 4.0


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
        if not 0.0 < self.tol < np.inf:  # NaN fails every comparison
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
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


def _book(stats: dict, **amounts):
    for key, amount in amounts.items():
        stats[key] = stats.get(key, 0) + amount


def _refine(solve, a: sp.spmatrix, b: np.ndarray, norm_a: float, stats: dict, stale: bool = False):
    """Iterative refinement of ``solve(b)`` against ``a`` under the residual contract.

    ``solve`` applies a factor.  With ``stale`` it is the factor of an
    earlier matrix, given up as soon as a step cuts the residual by less
    than ``STALE_CONTRACTION`` (the first step against ``||b||``), or from
    step 2 on once its mean contraction since ``||b||`` projects a residual
    above the contract bound after the steps left.  Returns
    (x, steps, None) when the contract is met, else (None, steps, reason);
    the steps are the solves with the factor.  Their time and that of the
    residual products is booked in ``stats["refine_time"]``.
    """
    t0 = time.perf_counter()
    try:
        norm_b = np.abs(b).max()
        x, last, steps = solve(b), norm_b, 1
        while True:
            if not np.all(np.isfinite(x)):
                return None, steps, "factorisation produced non-finite values"
            res = b - a @ x
            size = np.abs(res).max()
            bound = LINEAR_RESIDUAL_FACTOR * (norm_a * np.abs(x).max() + norm_b)
            if size <= bound:
                return x, steps, None
            if steps > REFINE_STEPS:
                return None, steps, f"refined residual {size:.3e} exceeds the contract bound after {steps} solves"
            if stale and STALE_CONTRACTION * size > last:
                return None, steps, f"stale factor contracted {last / size:.1f}x < {STALE_CONTRACTION:g}x at step {steps}"
            left = REFINE_STEPS + 1 - steps
            if stale and steps > 1 and size * (size / norm_b) ** (left / steps) > bound:
                return None, steps, (f"stale factor at its mean contraction {(norm_b / size) ** (1 / steps):.1f}x "
                                     f"projects residual > bound {bound:.3e} after {left} more solves")
            x, last, steps = x + solve(res), size, steps + 1
    finally:
        _book(stats, refine_time=time.perf_counter() - t0)


def _refined_solve(factor_of: sp.csc_matrix, a: sp.spmatrix, b: np.ndarray, norm_a: float, expand=None,
                   held: dict | None = None, stats: dict | None = None, **factor_opts):
    """Factor ``factor_of``, refine against the true matrix ``a``.

    ``expand(lu, r)``, when given, solves ``a`` for ``r`` with the factor of
    a condensed matrix; by default the factor solves ``a`` itself.
    Returns (x, fill, None) when the residual contract is met, else
    (None, fill, reason).  On success the factor's solve and the system
    size are kept in ``held``, when given.  ``stats`` books the factor
    and refinement times.
    """
    stats = {} if stats is None else stats
    t0 = time.perf_counter()
    try:
        lu = spla.splu(factor_of, **factor_opts)
    except (RuntimeError, ValueError) as exc:
        return None, 0, str(exc)
    finally:
        _book(stats, factor_time=time.perf_counter() - t0)
    fill = int(getattr(lu, "nnz", 0))
    solve = lu.solve if expand is None else (lambda r: expand(lu, r))
    x, _, reason = _refine(solve, a, b, norm_a, stats)
    if x is not None and held is not None:
        held.update(solve=solve, n=len(b))
    return x, fill, reason


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


def solve_linear(system: AssembledSystem, stats: dict | None = None, held: dict | None = None) -> np.ndarray:
    """Direct sparse solve with iterative refinement.

    Contract: the returned x satisfies
    ||A x - b||_inf <= 1e-10 (||A||_inf ||x||_inf + ||b||_inf).

    Assembled systems carry their cell-local unknowns and an elimination
    order that puts them first, then nested dissection with the multiplier
    last.  The local unknowns are condensed out and the Schur complement is
    factored in that order with static pivots (structurally zero diagonals
    are lifted by a tiny shift, and refinement against the full unshifted
    matrix restores full accuracy); a system without local unknowns takes
    the same path.  The stock column ordering of the full matrix serves
    systems without an ordering and remains as a fallback, counted in
    ``stats["fallbacks"]`` with the reason the first path failed (a singular
    local block is one) in ``stats["fallback_reason"]``; if it fails too,
    the error names both reasons.

    ``held``, when given, keeps the solve of the last factor made and the
    size of its system.  A held factor of this size is tried first, as a
    preconditioner refined against this system under the same contract;
    once a step contracts the residual by less than ``STALE_CONTRACTION``,
    or after ``REFINE_STEPS`` steps, it is released and the system is
    factored afresh, counted in ``stats["refactors"]`` with the reason in
    ``stats["refactor_reason"]``.  ``stats``, when given, accumulates
    solves, factors made (``factors``) and reused (``reused``), the solves
    with a held factor (``stale_steps``), the fill of the factors made, the
    condensed unknowns per factor, the time of condensation plus
    factorisation (``factor_time``) and of every solve with a factor plus
    its residual products (``refine_time``).
    """
    if not system.bc_applied:
        raise ValueError("apply Dirichlet data before solving")
    b = system.rhs
    a = system.matrix.tocsr()
    norm_a = float(np.abs(a).sum(axis=1).max())
    stats = {} if stats is None else stats

    if held and held["n"] == system.n:
        x, steps, reason = _refine(held["solve"], a, b, norm_a, stats, stale=True)
        _book(stats, stale_steps=steps)
        if x is not None:
            _book(stats, n_solves=1, reused=1)
            return x
        _book(stats, refactors=1)
        stats["refactor_reason"] = reason
    if held is not None:
        held.clear()  # never two factors at once
    nd_reason = None
    if system.ordering is not None:
        t0 = time.perf_counter()
        try:
            schur, expand = _condense(a, system.local, system.ordering, 1e-8 * norm_a)
        except np.linalg.LinAlgError as exc:
            schur, nd_reason = None, str(exc)
        _book(stats, factor_time=time.perf_counter() - t0)
        if schur is not None:
            x, fill, nd_reason = _refined_solve(
                schur, a, b, norm_a, expand=expand, held=held, stats=stats,
                permc_spec="NATURAL", options={"SymmetricMode": True, "DiagPivotThresh": 0.0},
            )
            if x is not None:
                _book(stats, n_solves=1, factors=1, fill=fill, condensed=system.local.size)
                return x
        _book(stats, fallbacks=1)
        stats["fallback_reason"] = nd_reason
    x, fill, reason = _refined_solve(a.tocsc(), a, b, norm_a, held=held, stats=stats)
    if x is None:
        if nd_reason is not None:
            reason = f"{reason} (after the nested-dissection path failed: {nd_reason})"
        raise SolverFailure(f"sparse direct solve failed: {reason}")
    _book(stats, n_solves=1, factors=1, fill=fill)
    return x


def _solve_nonlinear(spaces, coeffs, settings, g, pressure_target):
    """Both linearisations in one loop.  Each state is assembled once; the
    Oseen matrix gives the residual, and the update solves it (Picard) or
    the Jacobian system (Newton) for that residual."""
    assembler = SystemAssembler(spaces, coeffs)
    o = assembler.block_index
    V = assembler.V
    nb = V.cell_dofs.shape[1]
    gram_u = gram_values(assembler.classes, assembler.W)[0].reshape(-1, nb, nb)  # the increments' norm
    report = SolveReport(linear_stats={"n_solves": 0, "factors": 0, "reused": 0, "stale_steps": 0, "refactors": 0,
                                       "fill": 0, "condensed": 0, "fallbacks": 0, "factor_time": 0.0,
                                       "refine_time": 0.0, "ordering_time": 0.0})
    held = {}  # the last factor made, refined against later systems while it contracts
    newton = settings.method == "newton"
    state = np.zeros(o[4])
    if settings.initial_guess is not None:
        state[: o[1]] = settings.initial_guess.coefficients
    state[V.dirichlet_dofs] = boundary_values(V, g)
    # the fixed-point loop starts from the zero advecting field
    beta = state[: o[1]] if newton or settings.initial_guess is not None else np.zeros(o[1])

    while True:
        system, conv, res = assembler._step(beta, state, pressure_target, newton)
        report.linear_stats["ordering_time"] += assembler.ordering_time
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
        # both solve for the update, with homogeneous elimination (the state
        # already satisfies the data): Picard with the Oseen matrix, Newton
        # with the Jacobian
        matrix = assembler.jacobian(conv) if newton else system.matrix
        step = AssembledSystem(matrix, res, o, ordering=system.ordering, local=system.local)
        try:
            update = solve_linear(apply_dirichlet(step, V, None), report.linear_stats, held)
        except SolverFailure as exc:
            # report the breakdown instead of raising: the caller sees a
            # non-converged history and the failure note
            report.failure = str(exc)
            break
        du = update[V.cell_dofs]
        report.velocity_increments.append(float(np.sqrt(np.vdot(du, np.einsum("cab,cb->ca", gram_u, du)))))
        state = state + update
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


def grad_nu_norm(mesh, coeffs: ProblemCoefficients, r_star: float) -> float:
    """|| grad nu ||_{0, r*} over the mesh by degree-8 quadrature."""
    return 0.0 if coeffs.grad_nu is None else lp_norm(mesh, coeffs.grad_nu, r_star, 8)


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
