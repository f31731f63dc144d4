import math
import re
import sys
import warnings

import numpy as np
import pytest

from vvpflow.mesh import build_structured
from vvpflow.spaces import interpolate, method_spaces
from vvpflow.verify import coefficients_from_case, error_norms, example1_case_2d
import symmetric_rules
import vvpflow.verify
from vvpflow.assembly import SystemAssembler
from vvpflow.quadrature import _SYMMETRIC, MAX_DEGREE, CellQuadrature, QuadratureRule, physical_points, quadrature


def monomial_integral(a, b):
    # closed form over the reference triangle: a! b! / (a + b + 2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_degree_one_integrates_area():
    rule = quadrature(1)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_degree_two_integrates_linears():
    rule = quadrature(2)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert (rule.weights * (x + y)).sum() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_degree_four_integrates_x2y2():
    rule = quadrature(4)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert (rule.weights * x**2 * y**2).sum() == pytest.approx(1.0 / 180.0, abs=1e-16)
    assert monomial_integral(2, 2) == pytest.approx(1.0 / 180.0)


@pytest.mark.parametrize("degree", list(range(0, 13)))
def test_exactness_up_to_degree(degree):
    rule = quadrature(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            value = (rule.weights * x**a * y**b).sum()
            assert abs(value - monomial_integral(a, b)) <= 1e-14


@pytest.mark.parametrize("degree", [1, 3, 6, 8, 11])
def test_weights_positive_and_points_inside(degree):
    rule = quadrature(degree)
    assert np.all(rule.weights > 0)
    lam0 = 1.0 - rule.points.sum(axis=1)
    assert np.all(rule.points >= -1e-15)
    assert np.all(lam0 >= -1e-15)


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_full_symmetry(degree):
    rule = quadrature(degree)
    lam = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    key = {tuple(np.round(sorted(l), 12)): w for l, w in zip(lam, rule.weights)}
    for l, w in zip(lam, rule.weights):
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert key[tuple(np.round(sorted(l[list(perm)]), 12))] == pytest.approx(w, rel=1e-12)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        quadrature(-1)
    with pytest.raises(ValueError):
        quadrature(MAX_DEGREE + 1)
    # 2.5 and 7.0 failed inside numpy, 6.0 gave the 12-point rule and True the degree-1 one
    assert quadrature(6).degree == 6 and quadrature(1).degree == 1  # cached, they must not answer for 6.0 or True
    for degree in (2.5, 7.0, 6.0, True, "3", None):
        with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(degree))}"):
            quadrature(degree)
    rule = quadrature(np.int64(6))
    assert rule is quadrature(np.int64(6)) and type(rule.degree) is int and len(rule.weights) == 12


def test_rules_are_cached_and_immutable():
    a = quadrature(5)
    b = quadrature(5)
    assert a is b
    with pytest.raises(ValueError):
        a.points[0, 0] = 0.0


TABLE_RULES = {6: (12, {3: 2, 6: 1}), 8: (16, {1: 1, 3: 3, 6: 1}), 9: (19, {1: 1, 3: 4, 6: 1})}
PERMUTATIONS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def barycentric(rule):
    return np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])


@pytest.mark.parametrize("degree", sorted(TABLE_RULES))
def test_table_rules_have_their_orbit_layout(degree):
    npts, layout = TABLE_RULES[degree]
    rule = quadrature(degree)
    assert len(rule) == npts
    orbits = {}
    for lam, w in zip(barycentric(rule), rule.weights):
        orbits.setdefault(tuple(np.round(np.sort(lam), 12)), []).append(w)
    sizes = [len(ws) for ws in orbits.values()]
    assert {size: sizes.count(size) for size in set(sizes)} == layout
    for key, ws in orbits.items():
        assert np.ptp(ws) == 0.0
        assert len(set(key)) == {1: 1, 3: 2, 6: 3}[len(ws)]  # distinct coordinates of the orbit's points


@pytest.mark.parametrize("degree", sorted(TABLE_RULES))
def test_table_rules_are_invariant_under_vertex_permutations(degree):
    rule = quadrature(degree)
    lam = barycentric(rule)
    for perm in PERMUTATIONS:
        moved = lam[:, perm]
        # each permuted point is a point of the rule with the same weight
        dist = np.abs(moved[:, None, :] - lam[None, :, :]).max(axis=-1)
        match = dist.argmin(axis=1)
        assert dist.min(axis=1).max() <= 1e-15
        assert np.array_equal(np.sort(match), np.arange(len(rule)))
        assert np.array_equal(rule.weights[match], rule.weights)


@pytest.mark.parametrize("degree", sorted(TABLE_RULES))
def test_generator_reproduces_the_table_rules(degree):
    seed, start = symmetric_rules.RECORDED[degree]
    centroid, s21, s111 = symmetric_rules.fit(degree, seed, start)
    table = _SYMMETRIC[degree]
    assert (centroid is None) == (table[0] is None)
    assert centroid is None or abs(centroid - table[0]) <= 1e-13
    for fitted, stored in [(s21, table[1]), (s111, table[2])]:
        assert np.shape(fitted) == np.shape(stored)
        assert np.abs(np.subtract(fitted, stored)).max() <= 1e-13


def stack(family, vorticity):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Bernardi-Raugel with dg1 is outside the proven pairings
        return method_spaces(build_structured(2, 2), family, vorticity)


@pytest.mark.parametrize("family, vorticity, npts", [
    ("taylor-hood", "dg1", 12), ("bernardi-raugel", "dg1", 12), ("mini", "cg1", 16),
])
def test_assembly_runs_on_the_table_rules(family, vorticity, npts):
    asm = SystemAssembler(stack(family, vorticity), coefficients_from_case(example1_case_2d()))
    assert len(asm.quad.rule) == npts


@pytest.mark.parametrize("family", ["taylor-hood", "bernardi-raugel"])
def test_error_norms_run_on_the_19_point_rule(family, monkeypatch):
    case = example1_case_2d()
    spaces = stack(family, "dg1")
    rules = []

    class Recording(CellQuadrature):
        def __init__(self, mesh, degree):
            super().__init__(mesh, degree)
            rules.append(len(self.rule))

    monkeypatch.setattr(vvpflow.verify, "CellQuadrature", Recording)
    error_norms(*(interpolate(space, fn) for space, fn in zip(spaces, (case.u, case.omega, case.p))), case)
    assert rules and set(rules) == {19}


# 23 x 23 squares give 1,058 cells: two full chunks of 512 and a partial one
CELL_QUAD_MESH = dict(nx=23, ny=23, rect=(0.5, -0.25, 2.0, 1.5))


def test_cell_chunks_visit_every_cell_once():
    mesh = build_structured(**CELL_QUAD_MESH)
    quad = CellQuadrature(mesh, 3)
    chunks = list(quad.chunks())
    assert len(chunks) == 3
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), np.arange(mesh.n_cells))
    for cells, wdet, xq, inv in chunks:
        assert wdet.shape == (len(cells), len(quad.rule)) and xq.shape == wdet.shape + (2,)
        assert inv.shape == (len(cells), 2, 2)


def test_chunk_points_are_the_whole_mesh_points():
    # the assembly samples its coefficients chunk by chunk; the points must
    # be those of one whole-mesh mapping, bit for bit
    mesh = build_structured(**CELL_QUAD_MESH)
    quad = CellQuadrature(mesh, 6)
    whole = physical_points(quad.rule, quad.jac, mesh.vertices[mesh.cells[:, 0]])
    assert np.array_equal(np.concatenate([xq for _, _, xq, _ in quad.chunks()]), whole)


@pytest.mark.parametrize("degree", [2, 5])
def test_cell_integration_of_monomials(degree):
    x0, y0, x1, y1 = CELL_QUAD_MESH["rect"]
    quad = CellQuadrature(build_structured(**CELL_QUAD_MESH), degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            value = quad.integrate(lambda at: at(lambda x, y: x**a * y**b))[0]
            exact = (x1 ** (a + 1) - x0 ** (a + 1)) / (a + 1) * (y1 ** (b + 1) - y0 ** (b + 1)) / (b + 1)
            assert abs(value - exact) <= 1e-13 * abs(exact)


def test_error_norms_sample_and_evaluate_once_per_chunk(monkeypatch):
    # the velocity and the vorticity densities both read case.omega: each of the
    # three chunks samples it once, and evaluates each field once
    case = example1_case_2d()
    spaces = method_spaces(build_structured(23, 23), "taylor-hood", "dg1")
    fields = [interpolate(s, fn) for s, fn in zip(spaces, (case.u, case.omega, case.p))]
    module = sys.modules[CellQuadrature.__module__]  # the package exports the function quadrature under its name
    omega, eval_field, sampled, evaluated = case.omega, module.eval_field, [], []
    case.omega = lambda x, y: sampled.append(x.shape) or omega(x, y)
    monkeypatch.setattr(module, "eval_field", lambda f, *args: evaluated.append(f) or eval_field(f, *args))
    error_norms(*fields, case)
    assert len(sampled) == 3
    assert [sum(f is g for g in evaluated) for f in fields] == [3, 3, 3]


@pytest.mark.parametrize("weights, message", [([0.6, -0.1], "positive"), ([0.25, 0.0, 0.25], "positive"),
                                              ([0.2, 0.2], "sum to 1/2")])
def test_rule_weights_are_checked(weights, message):
    weights = np.array(weights)
    with pytest.raises(ValueError, match=message):
        QuadratureRule(np.full((len(weights), 2), 1.0 / 3.0), weights, 1)
