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

and the residual history, velocity increments and iteration count of a
Newton solve.  ``--compare`` names the first array in which two dumps
differ: every array must be bit-identical, except the velocity increments,
which must agree to ``INCREMENT_RTOL`` relative.

Run it with the source tree to dump on the import path:

    PYTHONPATH=src python tests/dump_systems.py OUT.npz
    python tests/dump_systems.py --compare A.npz B.npz
"""

from __future__ import annotations

import sys

import numpy as np

STACKS = (("taylor-hood", "dg1", 8), ("mini", "cg1", 3), ("bernardi-raugel", "dg0", 3), ("mini", "dg1", 16))
INCREMENT_RTOL = 1e-12


def _sparse(out: dict, name: str, matrix) -> None:
    matrix = matrix.tocsr()
    for attr in ("indptr", "indices", "data"):
        out[f"{name}.{attr}"] = getattr(matrix, attr)


def dump(path: str) -> None:
    import vvpflow as vf

    case = vf.example1_case_2d()
    coeffs = vf.coefficients_from_case(case)
    out = {}
    for family, vorticity, n in STACKS:
        tag = f"{family}/{vorticity}/{n}"
        spaces = vf.method_spaces(vf.build_structured(n, n), family, vorticity)
        asm = vf.SystemAssembler(spaces, coeffs)
        state = np.random.default_rng(n).standard_normal(asm.block_index[4])
        beta = vf.DiscreteField(spaces[0], state[: asm.block_index[1]])
        for label, system in (("oseen0", asm.oseen()), ("oseen", asm.oseen(beta=beta))):
            _sparse(out, f"{tag}/{label}", system.matrix)
            out[f"{tag}/{label}.rhs"] = system.rhs
        jac, residual = asm.newton_system(state)
        _sparse(out, f"{tag}/jacobian", jac.matrix)
        out[f"{tag}/residual"] = residual
        eliminated = vf.apply_dirichlet(asm.oseen(beta=beta), spaces[0], case.u)
        _sparse(out, f"{tag}/dirichlet", eliminated.matrix)
        out[f"{tag}/dirichlet.rhs"] = eliminated.rhs
        for name, part in asm.oseen(beta=beta, keep_parts=True).parts.items():
            _sparse(out, f"{tag}/parts/{name}", part)
        _sparse(out, f"{tag}/gram", vf.assemble_gram_X(spaces))
        _, _, _, report = vf.solve_newton(spaces, coeffs, g=case.u, pressure_target=case.pressure_integral)
        out[f"{tag}/newton.residual_history"] = np.array(report.residual_history)
        out[f"{tag}/newton.velocity_increments"] = np.array(report.velocity_increments)
        out[f"{tag}/newton.iterations"] = np.array(report.iterations)
    np.savez(path, **out)


def first_difference(a_path: str, b_path: str) -> str | None:
    """The first array, in the order of the first dump, that differs."""
    with np.load(a_path) as a, np.load(b_path) as b:
        if sorted(a.files) != sorted(b.files):
            return f"array names differ: {sorted(set(a.files) ^ set(b.files))}"
        for name in a.files:
            x, y = a[name], b[name]
            if x.shape != y.shape or x.dtype != y.dtype:
                return f"{name}: {x.shape} {x.dtype} against {y.shape} {y.dtype}"
            if name.endswith("velocity_increments"):
                if not np.allclose(x, y, rtol=INCREMENT_RTOL, atol=0.0):
                    return f"{name}: relative gap {np.max(np.abs(x - y) / np.abs(y)):.3e} > {INCREMENT_RTOL:g}"
            elif not np.array_equal(x, y):
                return f"{name}: {np.count_nonzero(x != y)} of {x.size} entries differ"
    return None


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        difference = first_difference(argv[1], argv[2])
        print(difference or "every array is identical")
        return 1 if difference else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        dump(argv[0])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
