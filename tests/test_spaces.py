import re

import numpy as np
import pytest

import vvpflow.spaces
from test_cell_classes import perturbed_mesh
from test_mesh import loop_connectivity
from vvpflow.mesh import build_structured, cell_geometry
from vvpflow.spaces import (
    boundary_values,
    check_method,
    build_space,
    eval_cell,
    eval_field,
    interpolate,
    method_spaces,
    tabulate,
    vertex_values,
    DiscreteField,
)
from vvpflow.verify import example1_case_2d, l2_error

RNG = np.random.default_rng(7)


def system_dofs(spaces):
    return sum(s.n_dofs for s in spaces) + 1


def test_taylor_hood_dof_counts_on_2x2():
    mesh = build_structured(2, 2)
    V, W, Q = method_spaces(mesh, "taylor-hood", "dg1")
    assert (V.n_dofs, W.n_dofs, Q.n_dofs) == (50, 24, 9)
    assert system_dofs((V, W, Q)) == 84


def test_mini_dof_counts_on_2x2():
    mesh = build_structured(2, 2)
    V, W, Q = method_spaces(mesh, "mini", "dg1")
    assert (V.n_dofs, W.n_dofs, Q.n_dofs) == (34, 24, 9)
    assert system_dofs((V, W, Q)) == 68


def test_dg0_one_dof_per_cell():
    mesh = build_structured(2, 2)
    space = build_space(mesh, "dg0")
    assert space.n_dofs == mesh.n_cells == 8


def test_uncovered_vorticity_pairing_warns():
    mesh = build_structured(2, 2)
    with pytest.warns(UserWarning):
        method_spaces(mesh, "taylor-hood", "dg0")
    with pytest.warns(UserWarning):
        method_spaces(mesh, "bernardi-raugel", "dg1")


def test_dirichlet_dof_counts():
    mesh = build_structured(2, 2)
    th = build_space(mesh, "p2", vector=True)
    assert len(th.dirichlet_dofs) == 2 * (8 + 8)  # boundary vertices + midpoints
    mini = build_space(mesh, "p1bubble", vector=True)
    assert len(mini.dirichlet_dofs) == 2 * 8  # bubbles have zero trace
    br = build_space(mesh, "bernardi-raugel")
    assert len(br.dirichlet_dofs) == 2 * 8 + 8  # vertex components + edge bubbles
    w = build_space(mesh, "dg1")
    assert len(w.dirichlet_dofs) == 0


def test_interpolate_constant_into_p1():
    mesh = build_structured(3, 3)
    space = build_space(mesh, "p1")
    field = interpolate(space, lambda x, y: np.ones_like(x))
    assert np.allclose(field.coefficients, 1.0)
    res = eval_cell(field, 5, (0.21, 0.33))
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_interpolate_linear_into_p2_reproduces():
    mesh = build_structured(2, 2)
    space = build_space(mesh, "p2")
    field = interpolate(space, lambda x, y: x)
    pts = RNG.random((30, 2))
    pts[pts.sum(axis=1) > 1.0] = 0.3 * pts[pts.sum(axis=1) > 1.0]
    for cell in (0, 3, 7):
        for pt in pts[:5]:
            res = eval_cell(field, cell, pt)
            v0 = mesh.vertices[mesh.cells[cell, 0]]
            jac = np.column_stack(
                [
                    mesh.vertices[mesh.cells[cell, 1]] - v0,
                    mesh.vertices[mesh.cells[cell, 2]] - v0,
                ]
            )
            x = v0 + jac @ pt
            assert res.value == pytest.approx(x[0], abs=1e-13)


def test_interpolation_error_decays_at_second_order():
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for n in (4, 8):
        space = build_space(build_structured(n, n), "p1")
        errs.append(l2_error(interpolate(space, exact), exact, quad_degree=6))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_mini_interpolant_matches_vertices_and_centroids():
    # vertex + centroid matching makes the local P1-plus-bubble
    # interpolation unisolvent, hence exact on the enriched space
    mesh = build_structured(2, 2)
    space = build_space(mesh, "p1bubble", vector=True)
    fn = lambda x, y: np.stack([np.sin(x + 2 * y), np.cos(x * y)], axis=-1)
    field = interpolate(space, fn)
    gv = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.allclose(field.coefficients[0 : 2 * mesh.n_vertices : 2], gv[:, 0])
    assert np.allclose(field.coefficients[1 : 2 * mesh.n_vertices : 2], gv[:, 1])
    centroid = np.array([1.0, 1.0]) / 3.0
    for cell in range(mesh.n_cells):
        res = eval_cell(field, cell, centroid)
        xc = mesh.vertices[mesh.cells[cell]].mean(axis=0)
        assert np.allclose(res.value, fn(xc[0], xc[1]), atol=1e-13)


def test_eval_cell_linear_fields():
    mesh = build_structured(2, 2)
    space = build_space(mesh, "p2", vector=True)

    shear = interpolate(space, lambda x, y: np.stack([y, np.zeros_like(x)], axis=-1))
    res = eval_cell(shear, 4, (0.2, 0.3))
    assert res.curl2d == pytest.approx(-1.0, abs=1e-13)
    assert res.div2d == pytest.approx(0.0, abs=1e-13)

    radial = interpolate(space, lambda x, y: np.stack([x, y], axis=-1))
    res = eval_cell(radial, 6, (0.5, 0.25))
    assert res.div2d == pytest.approx(2.0, abs=1e-13)
    assert res.curl2d == pytest.approx(0.0, abs=1e-13)


def test_eval_cell_scalar_has_no_curl():
    mesh = build_structured(2, 2)
    field = interpolate(build_space(mesh, "p1"), lambda x, y: x + y)
    res = eval_cell(field, 0, (0.25, 0.25))
    assert res.value == pytest.approx(0.375, abs=1e-13)
    with pytest.raises(ValueError):
        _ = res.curl2d
    with pytest.raises(ValueError):
        _ = res.div2d


def test_eval_cell_outside_reference_triangle():
    mesh = build_structured(2, 2)
    field = interpolate(build_space(mesh, "p1"), lambda x, y: x)
    with pytest.raises(ValueError):
        eval_cell(field, 0, (0.8, 0.8))


@pytest.mark.parametrize("cell", [-1, -8, 8, 1.0, "3"])
def test_eval_cell_rejects_a_cell_outside_the_mesh(cell):
    # a negative index counted from the end and evaluated the last cell's map; a float raised IndexError
    mesh = build_structured(2, 2)
    field = interpolate(build_space(mesh, "p1"), lambda x, y: x)
    for evaluate in (lambda: cell_geometry(mesh, cell), lambda: eval_cell(field, cell, (0.25, 0.25))):
        with pytest.raises(ValueError, match=r"is not an integer in \[0, 8\)"):
            evaluate()
    assert eval_cell(field, np.int64(7), (0.25, 0.25)).value == eval_cell(field, 7, (0.25, 0.25)).value


def test_interpolated_curl_approaches_analytic_value():
    case = example1_case_2d()
    mesh = build_structured(32, 32)
    space = build_space(mesh, "p2", vector=True)
    field = interpolate(space, case.u)
    res = eval_cell(field, 0, (0.0, 0.0))  # reference origin = physical (0, 0)
    assert res.curl2d == pytest.approx(-2.0 * np.pi, abs=0.05)


def test_corner_tiebreak_lid_wins():
    mesh = build_structured(2, 2)
    space = build_space(mesh, "p2", vector=True)
    vals = boundary_values(space, {"top": (1.0, 0.0)})
    lookup = dict(zip(space.dirichlet_dofs, vals))
    for v, (x, y) in enumerate(mesh.vertices):
        if y == 1.0:  # lid, including both corners
            assert lookup[2 * v] == 1.0 and lookup[2 * v + 1] == 0.0
        elif x in (0.0, 1.0) or y == 0.0:
            assert lookup[2 * v] == 0.0


@pytest.mark.parametrize("family", ["p2", "p1bubble", "bernardi-raugel"])
def test_boundary_values_interpolate_only_the_groups_with_data(monkeypatch, family):
    mesh = build_structured(4, 2, (0.0, 0.0, 2.0, 1.0))
    space = build_space(mesh, family, vector=True)
    lid = {"right": lambda x, y: np.stack([y, x * y], axis=-1), "top": (1.0, 0.0)}
    calls = []
    original = vvpflow.spaces.interpolate

    def counting(space, fn):
        calls.append(fn)
        return original(space, fn)

    monkeypatch.setattr(vvpflow.spaces, "interpolate", counting)
    values = boundary_values(space, lid)
    assert len(calls) == 2
    monkeypatch.setattr(vvpflow.spaces, "interpolate", original)
    # each group's interpolant, the None ones' too, applied bottom, right, left, top
    expected = np.zeros(space.n_dofs)
    for tag in ("bottom", "right", "left", "top"):
        dofs = vvpflow.spaces._edge_dofs(space, mesh.boundary_edges(tag))
        expected[dofs] = interpolate(space, lid.get(tag)).coefficients[dofs]
    assert np.array_equal(values, expected[space.dirichlet_dofs])


def test_vertex_values_average_discontinuous_fields():
    mesh = build_structured(1, 1)  # two cells sharing the diagonal
    space = build_space(mesh, "dg0")
    field = DiscreteField(space, np.array([1.0, 3.0]))
    vals = vertex_values(field)
    # diagonal vertices see both cells, the off-diagonal ones only one
    assert vals[0] == pytest.approx(2.0)
    assert vals[3] == pytest.approx(2.0)
    assert sorted([vals[1], vals[2]]) == pytest.approx([1.0, 3.0])


@pytest.mark.parametrize("family, vector", [("dg1", False), ("p2", True)])
def test_vertex_values_sum_corner_by_corner_bit_for_bit(family, vector):
    mesh = perturbed_mesh(6)
    space = build_space(mesh, family, vector=vector)
    field = DiscreteField(space, RNG.standard_normal(space.n_dofs))
    vals = eval_field(field, tabulate(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), slice(None), None)
    acc, count = np.zeros((mesh.n_vertices,) + vals.shape[2:]), np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(acc, mesh.cells[:, k], vals[:, k])
        np.add.at(count, mesh.cells[:, k], 1.0)
    assert np.array_equal(vertex_values(field), acc / (count[:, None] if vector else count))


@pytest.mark.parametrize("family", ["p2", "p1bubble", "bernardi-raugel"])
def test_fields_continuous_across_interior_edges(family):
    # shared entities carry one global DOF (and, for the edge bubbles,
    # one shared normal), so traces from both cells must agree
    mesh = build_structured(3, 2)
    space = build_space(mesh, family, vector=True)
    field = DiscreteField(space, RNG.standard_normal(space.n_dofs))
    _, _, edge_cells = loop_connectivity(mesh.cells)
    interior = np.nonzero(edge_cells[:, 1] >= 0)[0]
    for e in interior[::3]:
        pa, pb = mesh.vertices[mesh.edges[e]]
        for t in (0.2, 0.5, 0.9):
            x = (1.0 - t) * pa + t * pb
            values = []
            for c in edge_cells[e]:
                v0 = mesh.vertices[mesh.cells[c, 0]]
                jac = np.column_stack(
                    [
                        mesh.vertices[mesh.cells[c, 1]] - v0,
                        mesh.vertices[mesh.cells[c, 2]] - v0,
                    ]
                )
                ref = np.linalg.solve(jac, x - v0).clip(0.0)
                values.append(eval_cell(field, int(c), ref).value)
            assert np.allclose(values[0], values[1], atol=1e-12)


def test_dof_map_determinism():
    mesh = build_structured(3, 2)
    for family, vector in (("p2", True), ("p1bubble", True), ("bernardi-raugel", True), ("dg1", False)):
        a = build_space(mesh, family, vector=vector)
        b = build_space(mesh, family, vector=vector)
        assert np.array_equal(a.cell_dofs, b.cell_dofs)
        assert np.array_equal(a.dirichlet_dofs, b.dirichlet_dofs)


def test_coefficient_length_validated():
    mesh = build_structured(2, 2)
    space = build_space(mesh, "p1")
    with pytest.raises(ValueError):
        DiscreteField(space, np.zeros(space.n_dofs + 1))


@pytest.mark.parametrize("family", ["p2", "p1bubble", "bernardi-raugel"])
def test_eval_cell_matches_the_whole_mesh_tabulation_bit_for_bit(family):
    # eval_cell tabulates the basis directions of its one cell only
    from vvpflow.spaces import eval_field, tabulate

    mesh = build_structured(5, 4)
    space = build_space(mesh, family, vector=True)
    field = DiscreteField(space, RNG.standard_normal(space.n_dofs))
    for cell, point in zip(RNG.integers(0, mesh.n_cells, 12), RNG.random((12, 2)) * 0.5):
        res = eval_cell(field, int(cell), point)
        inv_t = cell_geometry(mesh, int(cell))[1]
        vals, grads = eval_field(field, tabulate(space, point[None]), np.array([cell]), inv_t.T[None], grad=True)
        g = grads[0, 0]
        assert np.array_equal(res.value, vals[0, 0]) and np.array_equal(res.gradient, g)
        assert res.curl2d == g[1, 0] - g[0, 1] and res.div2d == g[0, 0] + g[1, 1]


def _interleaved(scalar_dofs):
    """2 * scalar dof + component, components of one scalar DOF side by side."""
    return np.stack([2 * scalar_dofs, 2 * scalar_dofs + 1], axis=-1).reshape(len(scalar_dofs), -1)


def test_dof_numbering_follows_the_docstring_table():
    mesh = build_structured(2, 1)
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    verts, edges, cell = mesh.cells, mesh.cell_edges, np.arange(nc)[:, None]
    scalar = {  # family: (cell_dofs, n_dofs, local_dofs)
        "p1": (verts, nv, np.empty((nc, 0))),
        "p2": (np.hstack([verts, nv + edges]), nv + ne, np.empty((nc, 0))),
        "p1bubble": (np.hstack([verts, nv + cell]), nv + nc, nv + cell),
        "dg1": (3 * cell + np.arange(3), 3 * nc, 3 * cell + np.arange(3)),
        "dg0": (cell, nc, cell),
    }
    for family, (cell_dofs, n_dofs, local) in scalar.items():
        space = build_space(mesh, family)
        assert np.array_equal(space.cell_dofs, cell_dofs) and space.n_dofs == n_dofs, family
        assert np.array_equal(space.local_dofs, local) and space.dirichlet_dofs.size == 0, family

    bnd = mesh.boundary_edges()
    bnd_verts = np.unique(mesh.edges[bnd])
    vertex_trace = np.concatenate([2 * bnd_verts, 2 * bnd_verts + 1])
    vector = {  # family: (cell_dofs, n_dofs, local_dofs, dirichlet_dofs)
        "p1": (_interleaved(verts), 2 * nv, np.empty((nc, 0)), vertex_trace),
        "p2": (_interleaved(np.hstack([verts, nv + edges])), 2 * (nv + ne), np.empty((nc, 0)),
               np.concatenate([vertex_trace, 2 * (nv + bnd), 2 * (nv + bnd) + 1])),
        "p1bubble": (_interleaved(np.hstack([verts, nv + cell])), 2 * (nv + nc), _interleaved(nv + cell), vertex_trace),
        "bernardi-raugel": (np.hstack([_interleaved(verts), 2 * nv + edges]), 2 * nv + ne, np.empty((nc, 0)),
                            np.concatenate([vertex_trace, 2 * nv + bnd])),
    }
    for family, (cell_dofs, n_dofs, local, trace) in vector.items():
        space = build_space(mesh, family, vector=True)
        assert np.array_equal(space.cell_dofs, cell_dofs) and space.n_dofs == n_dofs, family
        assert np.array_equal(space.local_dofs, local), family
        assert np.array_equal(space.dirichlet_dofs, np.unique(trace)), family


@pytest.mark.parametrize("family, vorticity, message", [("powell-sabin", "dg1", "unknown element family 'powell-sabin'"),
                                                        ("taylor-hood", "dg2", "unknown vorticity space 'dg2'")])
def test_unknown_method_rejected(family, vorticity, message):
    with pytest.raises(ValueError, match=message):
        check_method(family, vorticity)
    with pytest.raises(ValueError, match=message):
        method_spaces(build_structured(1, 1), family, vorticity)


def test_boundary_values_reject_a_scalar_space():
    _, W, _ = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
    with pytest.raises(ValueError, match="expects a velocity"):
        boundary_values(W, (1.0, 0.0))


@pytest.mark.parametrize("fn", [1.0, None, (1.0, 0.0)])
def test_interpolate_rejects_a_non_callable_on_a_scalar_space(fn):
    _, W, _ = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
    with pytest.raises(ValueError, match=re.escape(f"a scalar space interpolates a point function, got {fn!r}")):
        interpolate(W, fn)


@pytest.mark.parametrize("g", [(1.0, 0.0, 5.0), (1.0,), [1.0, "a"], [1j, 0.0], np.ones((2, 2)), 1.0, "ab", "12",
                               ["1", "2"], np.array(1.0)])
def test_boundary_values_reject_a_constant_that_is_not_two_numbers(g):
    V = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")[0]
    with pytest.raises(ValueError, match="a constant boundary value must be two numbers, got"):
        boundary_values(V, g)
    with pytest.raises(ValueError, match="must be two numbers"):
        boundary_values(V, {"top": g})
    for pair in ((1.0, 0.0), [1, 0], np.array([1.0, 0.0])):
        assert np.array_equal(boundary_values(V, pair), boundary_values(V, lambda x, y: np.stack(
            [np.ones_like(x), np.zeros_like(x)], axis=-1)))


def test_boundary_values_reject_unknown_tags():
    V = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")[0]
    with pytest.raises(ValueError, match=r"unknown boundary tags \['lid', 'north'\]"):
        boundary_values(V, {"top": (1.0, 0.0), "north": None, "lid": (1.0, 0.0)})
