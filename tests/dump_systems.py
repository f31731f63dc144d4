"""Dump of the assembled systems and Newton histories, for checking that a
change to the assembly or the solver leaves them as they were.

On Example 1 over the unit square, for TH/dg1 at n = 8, MINI/cg1 and
BR/dg0 at n = 3 and MINI/dg1 at n = 16, it writes to one ``.npz`` file, as
indptr, indices and data:

- the Oseen matrix and rhs at beta = 0 and at a seeded random beta;
- the Newton Jacobian and residual at a seeded random state;
- the Dirichlet-eliminated Oseen matrix and rhs (boundary data of the
  exact velocity);
- every part of ``oseen(beta, keep_parts=True)``;
- the Gram matrix of ``assemble_gram_X``;
- the elimination order of the Oseen matrix at beta = 0 and, on a fresh
  assembler, at the random beta;

the ``cell_dofs``, ``dirichlet_dofs`` and ``local_dofs`` of each space and the
interpolants of the exact u, w and p;

and of a Newton solve the residual history, velocity increments,
iteration count, solution (u, w, p and the multiplier) and the integer
``linear_stats`` counters ``COUNTERS``; the same again for a Picard solve
of the first stack.  ``--compare`` lists every array in which two dumps
differ, with the count of differing entries, the largest relative gap and
the largest gap over the array's largest magnitude (which tells roundoff of
a near-zero entry from a moved array), and exits 1 if there is one: every
array must be bit-identical, except the velocity increments, which must
agree to ``INCREMENT_RTOL`` relative.

Run it with the source tree to dump on the import path:

    PYTHONPATH=src python tests/dump_systems.py OUT.npz
    python tests/dump_systems.py --compare A.npz B.npz
"""

from __future__ import annotations

import sys

import numpy as np

STACKS = (("taylor-hood", "dg1", 8), ("mini", "cg1", 3), ("bernardi-raugel", "dg0", 3), ("mini", "dg1", 16))
INCREMENT_RTOL = 1e-12
COUNTERS = ("n_solves", "factors", "reused", "stale_steps", "refactors", "fallbacks", "fill", "condensed")


def _sparse(out: dict, name: str, matrix) -> None:
    matrix = matrix.tocsr()
    for attr in ("indptr", "indices", "data"):
        out[f"{name}.{attr}"] = getattr(matrix, attr)


def _solution(out: dict, name: str, u, w, p, report) -> None:
    out[f"{name}.residual_history"] = np.array(report.residual_history)
    out[f"{name}.velocity_increments"] = np.array(report.velocity_increments)
    out[f"{name}.iterations"] = np.array(report.iterations)
    for label, field in (("u", u), ("w", w), ("p", p)):
        out[f"{name}.{label}"] = field.coefficients
    out[f"{name}.multiplier"] = np.array(report.multiplier)
    out[f"{name}.linear_stats"] = np.array([report.linear_stats[key] for key in COUNTERS])


def dump(path: str) -> None:
    import vvpflow as vf

    case = vf.example1_case_2d()
    coeffs = vf.coefficients_from_case(case)
    out = {}
    for family, vorticity, n in STACKS:
        tag = f"{family}/{vorticity}/{n}"
        spaces = vf.method_spaces(vf.build_structured(n, n), family, vorticity)
        for label, space, exact in zip("uwp", spaces, (case.u, case.omega, case.p)):
            for name in ("cell_dofs", "dirichlet_dofs", "local_dofs"):
                out[f"{tag}/{label}.{name}"] = getattr(space, name)
            out[f"{tag}/{label}.interpolant"] = vf.interpolate(space, exact).coefficients
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
        for name, part in asm.oseen(beta=beta, keep_parts=True).parts.items():
            _sparse(out, f"{tag}/parts/{name}", part)
        _sparse(out, f"{tag}/gram", vf.assemble_gram_X(spaces))
        _solution(out, f"{tag}/newton", *vf.solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral))
        if (family, vorticity, n) == STACKS[0]:
            picard = vf.solve_picard(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
            _solution(out, f"{tag}/picard", *picard)
    np.savez(path, **out)


def differences(a_path: str, b_path: str) -> list[str]:
    """One line per array that differs between two dumps, in the order of the
    first (then the arrays only the second has): its name, how many entries
    differ, the largest relative gap |x - y| / max(|x|, |y|) among them and
    the largest |x - y| over the largest |x| or |y| of the whole array."""
    lines = []
    with np.load(a_path) as a, np.load(b_path) as b:
        for name in a.files + [name for name in b.files if name not in a.files]:
            if name not in b.files or name not in a.files:
                lines.append(f"{name}: only in {a_path if name in a.files else b_path}")
                continue
            x, y = a[name], b[name]
            if x.shape != y.shape or x.dtype != y.dtype:
                lines.append(f"{name}: {x.shape} {x.dtype} against {y.shape} {y.dtype}")
                continue
            x, y = x.astype(float).ravel(), y.astype(float).ravel()
            differ = x != y
            gap = np.abs(x - y)[differ] / np.maximum(np.abs(x), np.abs(y))[differ]
            tolerated = name.endswith("velocity_increments") and np.all(gap <= INCREMENT_RTOL)
            if differ.any() and not tolerated:
                scaled = np.abs(x - y).max() / max(np.abs(x).max(), np.abs(y).max())
                lines.append(
                    f"{name}: {differ.sum()} of {x.size} entries differ, largest relative gap {gap.max():.3e}, "
                    f"largest gap over the largest entry {scaled:.3e}"
                )
    return lines


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        lines = differences(argv[1], argv[2])
        print("\n".join(lines) or "every array is identical")
        return 1 if lines else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        dump(argv[0])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
