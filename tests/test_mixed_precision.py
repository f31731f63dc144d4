"""The precision ladder of ``solve_linear``.

The condensed complement is factored in float32 first and refined against
the full float64 matrix under the unchanged residual contract; a float32
factor that does not contract gives way to a float64 one, and that to the
full matrix, the only rung counted as a fallback.  S's exactly zero
diagonals are lifted by 1e-7 ||A|| in float32 (``solver.CONDENSED``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vvpflow.solver
from vvpflow.mesh import build_structured
from vvpflow.solver import _condense, _refine, solve_linear, solve_newton
from vvpflow.spaces import method_spaces
from vvpflow.verify import coefficients_from_case, example1_case_2d
from test_condensation import assert_contract, newton_system


def recording_splu(monkeypatch):
    """(dtype, permc_spec, matrix) of every factor made from now on."""
    made, original = [], spla.splu

    def spy(matrix, **opts):
        made.append((matrix.dtype, opts.get("permc_spec", "COLAMD"), matrix.copy()))
        return original(matrix, **opts)

    monkeypatch.setattr(spla, "splu", spy)
    return made


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("family, vorticity", [("taylor-hood", "dg1"), ("mini", "cg1"), ("bernardi-raugel", "dg1")])
def test_every_newton_step_meets_the_contract_through_float32_factors(monkeypatch, family, vorticity, n):
    # BR/dg1 at n = 2 and 4 stalls with float64's lift of 1e-8 ||A||: refinement contracts 2-7x a step
    case = example1_case_2d()
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    original = vvpflow.solver.solve_linear

    def checking(system, stats=None, held=None):
        x = original(system, stats, held)
        assert_contract(system, x)
        return x

    monkeypatch.setattr(vvpflow.solver, "solve_linear", checking)
    made = recording_splu(monkeypatch)
    _, _, _, rep = solve_newton(spaces, coefficients_from_case(case), g=case.u, pressure_target=case.pressure_integral)
    stats = rep.linear_stats
    assert rep.converged and stats["n_solves"] == rep.iterations
    assert stats["float32_factors"] == stats["factors"] == len(made) >= 1
    assert all(dtype == np.float32 and spec == "NATURAL" for dtype, spec, _ in made)
    assert stats["float32_given_up"] == stats["fallbacks"] == 0 and "float32_reason" not in stats


def test_a_float32_factor_that_cannot_contract_gives_way_to_float64_then_to_the_full_matrix(monkeypatch):
    # a lift of ||A|| on both condensed rungs factors a matrix too far from the system's to contract
    _, system = newton_system("taylor-hood", "dg1", 8)
    monkeypatch.setattr(vvpflow.solver, "CONDENSED", ((np.float32, 1.0), (np.float64, 1.0)))
    made = recording_splu(monkeypatch)
    stats = {}
    x = solve_linear(system, stats)
    assert [(dtype, spec) for dtype, spec, _ in made] == [(np.float32, "NATURAL"), (np.float64, "NATURAL"),
                                                           (np.float64, "COLAMD")]
    assert stats["float32_given_up"] == 1 and stats["float32_reason"].startswith("float32 factor at its mean")
    assert stats["fallbacks"] == 1 and "exceeds the contract bound after 9 solves" in stats["fallback_reason"]
    assert stats["factors"] == stats["n_solves"] == 1 and "float32_factors" not in stats and "condensed" not in stats
    assert_contract(system, x)


def test_a_float32_factor_given_up_is_no_fallback(monkeypatch):
    asm, system = newton_system("taylor-hood", "dg1", 8)
    monkeypatch.setattr(vvpflow.solver, "CONDENSED", ((np.float32, 1.0), vvpflow.solver.CONDENSED[1]))
    made = recording_splu(monkeypatch)
    held, stats = {}, {}
    x = solve_linear(system, stats, held)
    assert [(dtype, spec) for dtype, spec, _ in made] == [(np.float32, "NATURAL"), (np.float64, "NATURAL")]
    assert stats["float32_given_up"] == 1 and "fallbacks" not in stats and "float32_factors" not in stats
    assert stats["factors"] == 1 and stats["condensed"] == asm.local.size
    assert held["n"] == system.n  # the float64 factor is held
    assert_contract(system, x)


def test_a_fresh_float32_factor_is_given_up_by_its_projection_only():
    # a solve whose first step contracts 2x and whose second is exact: the 4x rule of a stale factor
    # refuses it at its first step, a fresh float32 factor meets the contract at its second
    rng = np.random.default_rng(0)
    a = sp.csr_matrix(np.eye(30) * 4.0 + rng.uniform(-0.1, 0.1, (30, 30)))
    b = rng.standard_normal(30)
    exact = spla.splu(a.tocsc())
    calls = []

    def damped_once(r):
        calls.append(len(calls))
        return exact.solve(r) * (0.5 if len(calls) == 1 else 1.0)

    norm_a = np.abs(a).sum(axis=1).max()
    x, steps, reason = _refine(damped_once, a, b, norm_a, {}, stale=True)
    assert x is None and steps == 1 and reason.endswith("< 4x at step 1")
    calls.clear()
    x, steps, reason = _refine(damped_once, a, b, norm_a, {}, projected=True)
    assert reason is None and steps == 2
    assert np.abs(a @ x - b).max() <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(b).max())

    def contracting_2x(r):
        return exact.solve(r) * 0.5

    x, steps, reason = _refine(contracting_2x, a, b, norm_a, {}, projected=True)
    assert x is None and steps == 2 and reason.startswith("float32 factor at its mean contraction 2.0x")


@pytest.mark.filterwarnings("ignore:vorticity space")
@pytest.mark.parametrize("family, vorticity, zeros", [("taylor-hood", "dg1", "pressure"),
                                                       ("bernardi-raugel", "dg1", "pressure"),
                                                       ("mini", "cg1", "multiplier")])
def test_the_float32_lift_touches_exactly_the_zero_diagonals(monkeypatch, family, vorticity, zeros):
    asm, system = newton_system(family, vorticity, 6)
    a = system.matrix
    norm_a = np.abs(a).sum(axis=1).max()
    made = recording_splu(monkeypatch)
    solve_linear(system, {})
    _condense(a, system.plan, 0.0, np.float32)  # nothing is below 0: S unlifted
    (dtype, _, lifted), (_, _, bare) = made
    assert dtype == bare.dtype == np.float32
    assert np.array_equal(lifted.indices, bare.indices) and np.array_equal(lifted.indptr, bare.indptr)
    moved = np.flatnonzero(lifted.data != bare.data)
    diagonal = np.flatnonzero(bare.indices == np.repeat(np.arange(bare.shape[0]), np.diff(bare.indptr)))
    assert np.array_equal(moved, diagonal[bare.data[diagonal] == 0.0])
    assert np.all(lifted.data[moved] == np.float32(1e-7 * norm_a))
    # the zeros are the pressure rows that couple to no local unknown, and the multiplier (last in S)
    o, rest = asm.block_index, system.plan.rest
    unknowns = rest[np.searchsorted(diagonal, moved)]
    if zeros == "pressure":
        assert np.all((unknowns >= o[2]) & (unknowns <= o[3])) and len(unknowns) == o[3] - o[2] + 1
    else:
        assert np.array_equal(unknowns, [o[3]])
