"""Dump of the assembled systems and Newton histories, for checking that a
change to the assembly or the solver leaves them as they were.

On Example 1 over the unit square, for TH/dg1 at n = 8, MINI/cg1 and
BR/dg0 at n = 3 and MINI/dg1 at n = 16, it writes to one ``.npz`` file, as
indptr, indices and data:

- the Oseen matrix and rhs at beta = 0 and at a seeded random beta;
- the Newton Jacobian and residual at a seeded random state;
- the Dirichlet-eliminated Oseen matrix and rhs (boundary data of the
  exact velocity);
- every part of the Oseen system at the random beta (``assembled_parts``);
- the Gram matrix of ``assemble_gram_X``;
- the elimination order of the Oseen matrix at beta = 0 and, on a fresh
  assembler, at the random beta;

the ``cell_dofs``, ``dirichlet_dofs`` and ``local_dofs`` of each space and the
interpolants of the exact u, w and p, and what field evaluation makes of
them: their ``error_norms`` and u's ``div_norm``, the ``vertex_values`` of u
and w, and ``eval_cell`` of u (value and gradient) at ``POINT`` in the
first, a middle and the last cell;

the mesh's ``edges``, ``cell_edges``, ``edge_lengths``, ``edge_normals``
and ``h``, and its ``boundary_edges`` of each side in ``BOUNDARY_TAGS`` (the
same again for the non-square mesh ``MESH`` on its rectangle);

and of a Newton solve the residual history, velocity increments, step
lengths and forcing terms (all 1 and none where the solver records
none), iteration count, solution (u, w, p and the multiplier) and the
integer ``linear_stats`` counters ``COUNTERS`` (0 for a counter the
solver does not keep), and the matrix its first factor hands to SuperLU, as CSR (the
condensed complement, its lifted diagonals included); the same again, but
that matrix, for a Picard solve of the first stack.  ``--compare`` lists
every array in which two dumps differ, with the count of differing
entries, the largest relative gap and the largest gap over the array's
largest magnitude (which tells roundoff of a near-zero entry from a moved
array), then the array's class in ``GATE``, its bound and whether the
second dump keeps to it.  It exits 0 if every array is identical, 3 if
every moved array keeps to its bound and 1 otherwise.  The bounds: DOF
maps, orderings, patterns, assembled and factored matrices, rhs and
residuals, step counts and the counters are exact, except the
arrays and counters in ``NAMED`` and ``NAMED_COUNTERS``, which a change may
move and says why; solutions (u, w, p, the multiplier and the velocity
increments) may move by ``SOLUTION_GAP`` of the array's largest entry; and
each solve's final residual must stay below its tolerance ``TOL``.

Run it with the source tree to dump on the import path:

    PYTHONPATH=src python tests/dump_systems.py OUT.npz
    python tests/dump_systems.py --compare A.npz B.npz
"""

from __future__ import annotations

import re
import sys

import numpy as np

STACKS = (("taylor-hood", "dg1", 8), ("mini", "cg1", 3), ("bernardi-raugel", "dg0", 3), ("mini", "dg1", 16))
MESH = (7, 3, (0.0, 0.0, 2.0, 1.0))  # nx, ny and the rectangle
COUNTERS = ("n_solves", "factors", "reused", "stale_steps", "refactors", "fill", "condensed", "float32_factors",
            "float32_given_up")
TOL = 1e-8  # the dumped solves' tolerance, NonlinearSettings' default
POINT = (0.2, 0.3)  # the reference point at which the interpolated u is evaluated cell by cell
SOLUTION_GAP = 1e-8
# what the change under comparison may move: the eliminated matrix keeps its exact zeros, the
# condensed complement's structural pattern, zeros included, sets the fill, and the residual sums
# rhs - L x - N(beta) u, the convection cell by cell, where it was rhs - (L + N(beta)) x; a float32
# held factor refines later systems in more steps, and a tree that keeps no float32 counters dumps
# them as 0; an inexact Newton step solves only to its forcing term, so its update (the velocity
# increment) moves by up to that share, a held factor may serve a step it was refactored for
# (factors, reused, refactors and the condensed count per factor), and a tree without forcing terms
# dumps none
NAMED = ("dirichlet.indptr", "dirichlet.indices", "dirichlet.data", "residual", "newton.velocity_increments",
         "newton.forcing")
NAMED_COUNTERS = ("fill", "stale_steps", "float32_factors", "factors", "reused", "refactors", "condensed")
# (class, pattern of the array names, bound); the first match decides
GATE = (
    ("named", "/(" + "|".join(map(re.escape, NAMED)) + ")$", "may move"),
    ("solution", r"\.(u|w|p|multiplier|velocity_increments)$",
     f"<= {SOLUTION_GAP:g} of the largest entry (the multiplier: of its pressure)"),
    ("final residual", r"\.residual_history$", f"as many steps, the last <= {TOL:g} max(1, first)"),
    ("counters", r"\.linear_stats$", f"exact but {', '.join(NAMED_COUNTERS)}"),
    ("exact", "", "identical"),  # DOF maps, orderings, patterns, matrices, rhs, residuals, step counts
)


def _sparse(out: dict, name: str, matrix) -> None:
    matrix = matrix.tocsr()
    for attr in ("indptr", "indices", "data"):
        out[f"{name}.{attr}"] = getattr(matrix, attr)


def _mesh(out: dict, name: str, mesh) -> None:
    from vvpflow.mesh import BOUNDARY_TAGS

    for attr in ("edges", "cell_edges", "edge_lengths", "edge_normals", "h"):
        out[f"{name}.{attr}"] = np.asarray(getattr(mesh, attr))
    for tag in BOUNDARY_TAGS:
        out[f"{name}.boundary_edges.{tag}"] = mesh.boundary_edges(tag)


def _solution(out: dict, name: str, u, w, p, report) -> None:
    out[f"{name}.residual_history"] = np.array(report.residual_history)
    out[f"{name}.velocity_increments"] = np.array(report.velocity_increments)
    out[f"{name}.iterations"] = np.array(report.iterations)
    for label, field in (("u", u), ("w", w), ("p", p)):
        out[f"{name}.{label}"] = field.coefficients
    out[f"{name}.multiplier"] = np.array(report.multiplier)
    # a tree without a line search takes every step whole, and one without forcing terms records none
    out[f"{name}.step_lengths"] = np.array(getattr(report, "step_lengths", [1.0] * report.iterations))
    out[f"{name}.forcing"] = np.array(getattr(report, "forcing", []), dtype=float)
    out[f"{name}.linear_stats"] = np.array([report.linear_stats.get(key, 0) for key in COUNTERS])


def _evaluations(out: dict, tag: str, case, u, w, p) -> None:
    """What field evaluation makes of the interpolants ``u``, ``w`` and ``p``."""
    import vvpflow as vf

    out[f"{tag}/interpolant.error_norms"] = np.array(vf.error_norms(u, w, p, case))
    out[f"{tag}/u.div_norm"] = np.array(vf.div_norm(u))
    for label, field in (("u", u), ("w", w)):
        out[f"{tag}/{label}.vertex_values"] = vf.vertex_values(field)
    nc = u.space.mesh.n_cells
    at = [vf.eval_cell(u, cell, POINT) for cell in (0, nc // 2, nc - 1)]
    out[f"{tag}/u.eval_cell.value"] = np.array([a.value for a in at])
    out[f"{tag}/u.eval_cell.gradient"] = np.array([a.gradient for a in at])


def _first_factored(out: dict, name: str, solve):
    """``solve()``, with the first matrix it hands to ``splu`` dumped as ``name``."""
    import scipy.sparse.linalg as spla

    made, original = [], spla.splu

    def recording(matrix, **options):
        if not made:
            made.append(matrix.copy())
        return original(matrix, **options)

    spla.splu = recording
    try:
        result = solve()
    finally:
        spla.splu = original
    _sparse(out, name, made[0])
    return result


def dump(path: str) -> None:
    import vvpflow as vf
    from assembled_parts import parts

    case = vf.example1_case_2d()
    coeffs = vf.coefficients_from_case(case)
    out = {}
    nx, ny, rect = MESH
    _mesh(out, f"mesh/{nx}x{ny}", vf.build_structured(nx, ny, rect))
    for family, vorticity, n in STACKS:
        tag = f"{family}/{vorticity}/{n}"
        spaces = vf.method_spaces(vf.build_structured(n, n), family, vorticity)
        _mesh(out, f"{tag}/mesh", spaces[0].mesh)
        fields = [vf.interpolate(space, exact) for space, exact in zip(spaces, (case.u, case.omega, case.p))]
        for label, space, field in zip("uwp", spaces, fields):
            for name in ("cell_dofs", "dirichlet_dofs", "local_dofs"):
                out[f"{tag}/{label}.{name}"] = getattr(space, name)
            out[f"{tag}/{label}.interpolant"] = field.coefficients
        _evaluations(out, tag, case, *fields)
        asm = vf.SystemAssembler(spaces, coeffs)
        state = np.random.default_rng(n).standard_normal(asm.block_index[4])
        beta = vf.DiscreteField(spaces[0], state[: asm.block_index[1]])
        for label, system in (("oseen0", asm.oseen()), ("oseen", asm.oseen(beta=beta))):
            _sparse(out, f"{tag}/{label}", system.matrix)
            out[f"{tag}/{label}.rhs"] = system.rhs
        out[f"{tag}/oseen0.ordering"] = asm.oseen().ordering
        out[f"{tag}/oseen.ordering"] = vf.SystemAssembler(spaces, coeffs).oseen(beta=beta).ordering
        jac, residual = asm.newton_system(state)
        _sparse(out, f"{tag}/jacobian", jac.matrix)
        out[f"{tag}/residual"] = residual
        eliminated = vf.apply_dirichlet(asm.oseen(beta=beta), spaces[0], case.u)
        _sparse(out, f"{tag}/dirichlet", eliminated.matrix)
        out[f"{tag}/dirichlet.rhs"] = eliminated.rhs
        for name, part in parts(asm, beta).items():
            _sparse(out, f"{tag}/parts/{name}", part)
        _sparse(out, f"{tag}/gram", vf.assemble_gram_X(spaces))
        newton = _first_factored(out, f"{tag}/newton/factored", lambda: vf.solve_newton(
            spaces, coeffs, g=case.u, pressure_target=case.pressure_integral))
        _solution(out, f"{tag}/newton", *newton)
        if (family, vorticity, n) == STACKS[0]:
            picard = vf.solve_picard(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
            _solution(out, f"{tag}/picard", *picard)
    np.savez(path, **out)


def _keeps(kind: str, x: np.ndarray, y: np.ndarray, scale: float) -> bool:
    """Whether the array ``y`` keeps to the bound of its class ``kind`` against
    ``x`` of its shape; ``scale`` is the largest entry a solution's gap is
    measured against."""
    if kind in ("named", "exact"):
        return kind == "named"
    if kind == "solution":
        return np.abs(x - y).max() <= SOLUTION_GAP * scale
    if kind == "final residual":
        return y[-1] <= TOL * max(1.0, y[0])
    return {COUNTERS[i] for i in np.flatnonzero(x != y)} <= set(NAMED_COUNTERS)


def differences(a_path: str, b_path: str) -> list[tuple[str, bool]]:
    """One line per array that differs between two dumps, in the order of the
    first (then the arrays only the second has), and whether it keeps to its
    bound.  The line gives its name, how many entries differ, the largest
    relative gap |x - y| / max(|x|, |y|) among them, the largest |x - y| over
    the largest |x| or |y| of the whole array, and its class and bound."""
    lines = []
    with np.load(a_path) as a, np.load(b_path) as b:
        for name in a.files + [name for name in b.files if name not in a.files]:
            kind, _, bound = next(row for row in GATE if re.search(row[1], name))
            x, y = (dump[name] if name in dump.files else None for dump in (a, b))
            if x is None or y is None:
                line, kept = f"{name}: only in {a_path if y is None else b_path}", False
            elif x.shape != y.shape or x.dtype != y.dtype:
                line, kept = f"{name}: {x.shape} {x.dtype} against {y.shape} {y.dtype}", kind == "named"
            else:
                x, y = x.astype(float).ravel(), y.astype(float).ravel()
                differ = x != y
                if not differ.any():
                    continue
                gap = np.abs(x - y)[differ] / np.maximum(np.abs(x), np.abs(y))[differ]
                scale = max(np.abs(x).max(), np.abs(y).max())
                line = (f"{name}: {differ.sum()} of {x.size} entries differ, largest relative gap {gap.max():.3e}, "
                        f"largest gap over the largest entry {np.abs(x - y).max() / scale:.3e}")
                # the multiplier, zero but for roundoff here, is measured against the pressure it constrains
                at = re.sub(r"\.multiplier$", ".p", name)
                if at != name and at in a.files and at in b.files:
                    scale = max(scale, np.abs(a[at]).max(), np.abs(b[at]).max())
                kept = _keeps(kind, x, y, scale)
            lines.append((f"{line} [{kind}: {bound}; {'kept' if kept else 'exceeded'}]", kept))
    return lines


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        lines = differences(argv[1], argv[2])
        print("\n".join(line for line, _ in lines) or "every array is identical")
        if not lines:
            return 0
        return 3 if all(kept for _, kept in lines) else 1
    if len(argv) == 1 and not argv[0].startswith("-"):
        dump(argv[0])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
