"""Nonlinear and linear solves, plus small-data diagnostics.

The nonlinear problem is solved by a Picard loop (refreezing the
advecting field at the previous velocity) or by Newton's method, from a
zero initial state with the boundary values lifted in, until the full
residual drops below the tolerance in absolute or relative (to the first
residual) max norm.  A residual needs no matrix, so each update
assembles only the one it solves: the Oseen matrix (Picard) or the
Jacobian (Newton).  A run that uses up its iterations, meets a
non-finite residual or cannot solve a linear system stops with the
reason in ``SolveReport.failure``.

Each linear system is solved directly.  The cell-local unknowns (dg
vorticity, MINI bubbles) are eliminated cell by cell with batched
inverses of their blocks (static condensation: Wilson, IJNME 8, 1974),
and SuperLU factors only the Schur complement, in nested-dissection
order with static pivots.  The complement lives on a pattern that its
assembler's :class:`~vvpflow.assembly.CondensationPlan` fixes once
(condensation onto a fixed global pattern: Cockburn, Gopalakrishnan &
Lazarov, SINUM 47, 2009): forming it gathers from the eliminated matrix's
data and subtracts each cell's correction on slots, with no sparse
product, sum or slice, and its fill depends on the mesh only.  SuperLU
factors it in float32 first and iterative refinement, which always runs
against the full float64 matrix, brings the solution to the
double-precision contract (mixed-precision refinement: Buttari, Dongarra,
Kurzak, Luszczek & Tomov, ACM TOMS 34, 2008; Carson & Higham, SISC 40,
2018); a float32 factor that does not contract gives way to a float64
one, and a solve whose float64 factor fails too raises
:class:`SolverFailure` with both reasons.  S is the only matrix SuperLU
ever factors.  Its exactly zero diagonals are lifted by a rule stated at
``CONDENSED``.  While SuperLU factors, the eliminated matrix is the only
full one alive, and S only in the precision it is factored in.  Beside a
held factor a later step holds the binned linear part, its one matrix
and, while eliminating, the masked data.

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

from .assembly import (AssembledSystem, CondensationPlan, ProblemCoefficients, SystemAssembler, apply_dirichlet,
                       gram_values)
from .quadrature import CHUNK, CellQuadrature
from .spaces import DiscreteField, boundary_values

LINEAR_RESIDUAL_FACTOR = 1e-10
#: Refinement steps (solves after the first) a factor has to meet the contract.
REFINE_STEPS = 8
#: A held factor of an earlier matrix is refactored once a refinement step
#: cuts the residual by less than this.
STALE_CONTRACTION = 4.0
#: The factors of a solve, in the order tried: the complement's precision and the lift, in units of
#: ||A||_inf, that raises each diagonal of S below 1e-8 ||A||_inf (the exact zeros of the TH
#: and BR pressure rows and of the multiplier).  float32 rounds a pivot of size ||A|| by up to
#: 6e-8 ||A||, so its factor needs the larger lift; a lift of every diagonal below 1e-6 ||A||
#: stalls the MINI cavity's float32 factors, whose pressure diagonals are that small.
CONDENSED = ((np.float32, 1e-7), (np.float64, 1e-8))


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
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):  # the loop counts to it
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


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

    ``solve`` applies a factor, which is given up from step 2 on once its
    mean contraction since ``||b||`` projects a residual above the contract
    bound after the ``REFINE_STEPS`` steps in all; at the last step that
    projection is the residual itself.  With ``stale`` it is the factor of
    an earlier matrix, also given up as soon as a step cuts the residual by
    less than ``STALE_CONTRACTION`` (the first step against ``||b||``).
    Returns (x, steps, None) when the contract is met, else (None, steps,
    reason); the steps are the solves with the factor.  Their time and that
    of the residual products is booked in ``stats["refine_time"]``.
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
            if stale and STALE_CONTRACTION * size > last:
                return None, steps, f"stale factor contracted {last / size:.1f}x < {STALE_CONTRACTION:g}x at step {steps}"
            left = REFINE_STEPS + 1 - steps
            if steps > 1 and size * (size / norm_b) ** (left / steps) > bound:
                if not left:
                    return None, steps, f"refined residual {size:.3e} exceeds the contract bound after {steps} solves"
                return None, steps, (f"{'stale' if stale else 'fresh'} factor at its mean contraction "
                                     f"{(norm_b / size) ** (1 / steps):.1f}x projects residual > bound {bound:.3e} "
                                     f"after {left} more solves")
            x, last, steps = x + solve(res), size, steps + 1
    finally:
        _book(stats, refine_time=time.perf_counter() - t0)


def _gather(data: np.ndarray, slots: np.ndarray, absent: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``data`` at ``slots`` in ``dtype``, zero at the flat places ``absent`` (no key)."""
    values = data[slots].astype(dtype, copy=False)
    values.flat[absent] = 0.0
    return values


def _condense(a: sp.csr_matrix, plan: CondensationPlan, shift_below: float, dtype, lift: float):
    """Eliminate the cell-local unknowns of ``a`` cell by cell, on ``plan``.

    With L the local and G the other unknowns, in the order ``plan`` gives
    them, factors the Schur complement S = A_GG - A_GL A_LL^-1 A_LG in
    ``dtype``, its diagonal entries smaller than ``shift_below`` raised by
    ``lift``, in that order with static pivots.  Every block is a gather
    from ``a.data``: A_LL is block diagonal, one (k, k) block per cell,
    inverted batched in float64 (a singular block raises
    ``np.linalg.LinAlgError``); S is gathered and each cell's correction
    formed and subtracted on its slots in cell order, in ``dtype``.
    Returns the solve of ``a x = r`` through that factor, which eliminates
    the local unknowns in float64 and solves with S in ``dtype``, and the
    factor's fill.  ``a`` must be on the plan
    (:meth:`~vvpflow.assembly.CondensationPlan.check`).
    """
    blocks, gl, lg = (_gather(a.data, *slots) for slots in (plan.ll, plan.gl, plan.lg))
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.linalg.slogdet(blocks)[0] == 0.0)
        reason = f"singular cell-local block in {len(bad)} of {len(blocks)} cells {bad[:5].tolist()}"
        raise np.linalg.LinAlgError(reason) from None
    inv_lg = inv @ lg
    del blocks, lg
    schur = _gather(a.data, *plan.gather, dtype)  # S's entries, then the sink of the pairs without one
    # formed in S's type: 1-D and of one type is numpy's fast path
    np.subtract.at(schur, plan.pairs.ravel(), (gl.astype(dtype, copy=False) @ inv_lg.astype(dtype, copy=False)).ravel())
    diagonal = schur[plan.diagonal]
    schur[plan.diagonal] = np.where(np.abs(diagonal) < shift_below, diagonal + lift, diagonal)
    lu = spla.splu(plan.complement(schur[:-1]), permc_spec="NATURAL",
                   options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
    rest, local, dofs, rows = plan.rest, plan.local, plan.dofs, plan.dofs.ravel().astype(np.intp)

    def solve(r):
        y = np.einsum("ckl,cl->ck", inv, r[local])
        r_g = r[rest] - np.bincount(rows, np.einsum("crk,ck->cr", gl, y).ravel(), len(rest))
        x = np.empty(len(r))
        x[rest] = x_g = lu.solve(r_g.astype(dtype, copy=False)).astype(np.float64, copy=False)
        x[local] = y - np.einsum("cks,cs->ck", inv_lg, x_g[dofs])
        return x

    return solve, lu.nnz


def solve_linear(system: AssembledSystem, stats: dict | None = None, held: dict | None = None) -> np.ndarray:
    """Direct sparse solve with iterative refinement.

    Contract: the returned x satisfies
    ||A x - b||_inf <= 1e-10 (||A||_inf ||x||_inf + ||b||_inf).

    ``system`` must carry the condensation plan of its assembler and a
    matrix on that plan's pattern, as :func:`apply_dirichlet` leaves it;
    anything else raises ``ValueError``.  The plan's elimination order puts
    the cell-local unknowns first, then nested dissection with the
    multiplier last.  The local unknowns are condensed out and the Schur
    complement is factored in that order with static pivots, its zero
    diagonals lifted as ``CONDENSED`` states, and refinement against the
    full unshifted float64 matrix restores full accuracy; a system without
    local unknowns takes the same path.  The complement is factored in
    float32 and, if that factor fails, in float64: a failure is an error
    of the factor or a factor given up by :func:`_refine`.  A singular
    cell-local block raises :class:`SolverFailure` at once, as A_LL is
    inverted in float64 for either factor.  A float32 factor given up is
    counted in ``stats["float32_given_up"]`` with the reason in
    ``stats["float32_reason"]``; one that meets the contract counts in
    ``stats["float32_factors"]``.  If the float64 factor fails too,
    :class:`SolverFailure` names both reasons.

    ``held``, when given, keeps the solve of the last factor that met the
    contract, of either precision, and the size of its system (nothing
    once both fail).  A held factor of this size is tried first, as a
    preconditioner refined against this system under the same contract;
    once :func:`_refine` gives it up as ``stale``, it is released and the
    system is factored afresh, counted in ``stats["refactors"]`` with the
    reason in ``stats["refactor_reason"]``.  ``stats``, when given, accumulates
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
    system.plan.check(a)
    # the max absolute row sum, each row summed as a.sum(axis=1) does, without a copy of a
    norm_a = float(np.add.reduceat(np.abs(a.data), a.indptr[np.flatnonzero(np.diff(a.indptr))]).max(initial=0.0))
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
    failed = []  # "precision: reason" of each factor that failed
    for dtype, lift in CONDENSED:
        x = reason = solve = None  # the failed attempt's factor goes before the next is made
        t0 = time.perf_counter()
        try:
            solve, fill = _condense(a, system.plan, 1e-8 * norm_a, dtype, lift * norm_a)
        except np.linalg.LinAlgError as exc:  # the same float64 inverse fails in either precision
            raise SolverFailure(f"sparse direct solve failed: {exc}") from None
        except RuntimeError as exc:
            reason = str(exc)
        _book(stats, factor_time=time.perf_counter() - t0)
        if reason is None:
            x, _, reason = _refine(solve, a, b, norm_a, stats)
        if x is not None:
            if held is not None:
                held.update(solve=solve, n=len(b))
            _book(stats, n_solves=1, factors=1, fill=fill, condensed=system.local.size)
            if dtype is np.float32:
                _book(stats, float32_factors=1)
            return x
        failed.append(f"the {np.dtype(dtype).name} complement: {reason}")
        if dtype is np.float32:
            _book(stats, float32_given_up=1)
            stats["float32_reason"] = reason
    raise SolverFailure("sparse direct solve failed: " + "; ".join(failed))


def _gram_norm(blocks: np.ndarray, label: np.ndarray, du: np.ndarray) -> float:
    """sqrt(sum_c du_c' G_c du_c) over the cells' coefficients ``du`` (nc, nb),
    with G_c = ``blocks[label[c]]``, contracted CHUNK cells at a time."""
    total = 0.0
    for c0 in range(0, len(du), CHUNK):
        d = du[c0:c0 + CHUNK]
        total += np.vdot(d, np.einsum("cab,cb->ca", blocks[label[c0:c0 + CHUNK]], d))
    return float(np.sqrt(total))


def _solve_nonlinear(spaces, coeffs, settings, g, pressure_target):
    """Both linearisations in one loop.  Each state's residual is summed
    without a matrix; the update then solves the one matrix it needs, the
    Oseen matrix (Picard) or the Jacobian (Newton), for that residual."""
    assembler = SystemAssembler(spaces, coeffs)
    o = assembler.block_index
    V = assembler.V
    nb = V.cell_dofs.shape[1]
    # the increments' norm: its form has constant coefficients, so one velocity block per affine class
    first, label = assembler.classes.first, assembler.classes.label
    gram_u = gram_values(assembler.classes, assembler.W)[0][first].reshape(-1, nb, nb)
    report = SolveReport(linear_stats={"n_solves": 0, "factors": 0, "reused": 0, "stale_steps": 0, "refactors": 0,
                                       "fill": 0, "condensed": 0, "float32_factors": 0,
                                       "float32_given_up": 0, "factor_time": 0.0,
                                       "refine_time": 0.0, "ordering_time": assembler.ordering_time})
    held = {}  # the last factor made, refined against later systems while it contracts
    newton = settings.method == "newton"
    state = np.zeros(o[4])
    if settings.initial_guess is not None:
        state[: o[1]] = assembler._velocity_coefficients(settings.initial_guess, "the initial guess")
    state[V.dirichlet_dofs] = boundary_values(V, g)
    # the fixed-point loop starts from the zero advecting field
    beta = state[: o[1]] if newton or settings.initial_guess is not None else np.zeros(o[1])

    while True:
        conv = assembler._convection(DiscreteField(V, beta), newton=newton)
        res = assembler._residual(state, conv[0], pressure_target)
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
        # with the Jacobian.  The convection values go once the matrix is made
        # and the un-eliminated matrix once it is eliminated: one full matrix
        # is alive at the factor.
        matrix = assembler.jacobian(conv) if newton else assembler._matrix(conv[0])
        del conv
        system = apply_dirichlet(assembler._system(matrix, res), V, None)
        del matrix
        try:
            update = solve_linear(system, report.linear_stats, held)
        except SolverFailure as exc:
            # report the breakdown instead of raising: the caller sees a
            # non-converged history and the failure note
            report.failure = str(exc)
            break
        del system  # not alive through the next assembly
        report.velocity_increments.append(_gram_norm(gram_u, label, update[V.cell_dofs]))
        state = state + update
        beta = state[: o[1]]
        report.iterations += 1

    u, w, p = np.split(state[: o[3]], o[1:3])
    report.multiplier = float(state[o[3]])
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
        if not 2.0 < self.r < np.inf:  # NaN fails every comparison
            raise ValueError(f"the exponent r must exceed 2 and be finite, got {self.r}")
        if not 0.0 < self.delta < np.inf:
            raise ValueError(f"the ball radius delta must be positive and finite, got {self.delta}")
        for name, value in (("C_r", self.C_r), ("C_4", self.C_4)):  # delta_limit divides by C_4^2
            if not 0.0 < value < np.inf:
                raise ValueError(f"the embedding constant {name} must be positive and finite, got {value}")
        if not 0.0 <= self.grad_nu_Lrstar < np.inf:
            raise ValueError(f"the norm grad_nu_Lrstar must be non-negative and finite, got {self.grad_nu_Lrstar}")

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
