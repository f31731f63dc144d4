import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from types import SimpleNamespace

from vvpflow.mesh import BOUNDARY_TAGS, build_structured, cell_geometry, geometry_arrays, refine_uniform


def mesh_counts(n):
    return (n + 1) ** 2, 2 * n * n, 2 * n * (n + 1) + n * n


def test_build_2x2_unit_square():
    m = build_structured(2, 2)
    assert m.n_vertices == 9
    assert m.n_cells == 8
    assert abs(m.h - 0.707) < 5e-4


def test_build_1x1_unit_square():
    m = build_structured(1, 1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.h == pytest.approx(np.sqrt(2.0), rel=0, abs=0)


def test_build_4x4_unit_square():
    m = build_structured(4, 4)
    assert m.n_vertices == 25
    assert m.n_cells == 32
    assert abs(m.h - 0.354) < 5e-4


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_entity_counts(n):
    m = build_structured(n, n)
    nv, nc, ne = mesh_counts(n)
    assert (m.n_vertices, m.n_cells, m.n_edges) == (nv, nc, ne)
    assert m.h == pytest.approx(np.sqrt(2.0) / n, rel=1e-14)


@pytest.mark.parametrize(
    "nx,ny,rect",
    [(0, 2, (0, 0, 1, 1)), (2, -1, (0, 0, 1, 1)), (2, 2, (0, 0, 0, 1)), (2, 2, (0, 1, 1, 0)),
     (True, 2, (0, 0, 1, 1)), (2.0, 2, (0, 0, 1, 1)), (2.5, 2, (0, 0, 1, 1)), ("3", 2, (0, 0, 1, 1))],
)
def test_invalid_arguments(nx, ny, rect):
    with pytest.raises(ValueError):
        build_structured(nx, ny, rect)


def test_counts_name_the_value_and_take_numpy_integers():
    # a bool is an int: True built a 1 x 2 mesh
    with pytest.raises(ValueError, match="got True"):
        build_structured(2, True)
    m = build_structured(np.int64(3), np.int32(2))
    assert (m.nx, m.ny, m.n_cells) == (3, 2, 12) and type(m.nx) is int


@pytest.mark.parametrize("rect", [(0, 0, np.inf, 1), (-np.inf, 0, 1, 1), (0, -np.inf, 1, np.inf)])
def test_rectangle_corners_must_be_finite(rect):
    # x1 > x0 holds for an infinite x1: the mesh had NaN vertices and h = nan
    with pytest.raises(ValueError, match="corners must be finite"):
        build_structured(2, 2, rect)


def test_cells_of_nan_area_fail_the_orientation_check():
    # finite corners whose width overflows: linspace gives NaN vertices, and a NaN area is not positive
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="degenerate cells"):
        build_structured(2, 2, (-1e308, 0, 1e308, 1))


def test_refine_matches_double_resolution():
    m = build_structured(2, 2)
    r = refine_uniform(m)
    d = build_structured(4, 4)
    assert np.array_equal(r.vertices, d.vertices)
    assert np.array_equal(r.cells, d.cells)
    assert m.h / r.h == 2.0  # exact halving
    assert r.n_cells == 4 * m.n_cells


def test_refinement_sequence_reaches_table_mesh_sizes():
    # six refinements of the coarsest 2x2 level give n = 128, h = 0.011
    m = build_structured(2, 2)
    for _ in range(6):
        m = refine_uniform(m)
    assert m.nx == 128
    assert abs(m.h - 0.011) < 5e-4
    # five refinements stop one level earlier, at h = 0.022
    m5 = build_structured(2, 2)
    for _ in range(5):
        m5 = refine_uniform(m5)
    assert abs(m5.h - 0.022) < 5e-4


def test_cell_areas_and_boundary_lengths():
    rect = (0.0, 0.0, 2.0, 1.0)
    m = build_structured(6, 3, rect)
    for _ in range(3):
        _, _, det = geometry_arrays(m)
        assert np.all(det > 0)
        assert abs(0.5 * det.sum() - 2.0) < 1e-12 * 2.0
        blen = sum(m.edge_lengths[e] for e in m.boundary_edges())
        assert abs(blen - 6.0) < 1e-12 * 6.0
        m = refine_uniform(m)


def test_boundary_tags_per_side():
    m = build_structured(3, 2)
    sides = {t: len(m.boundary_edges(t)) for t in BOUNDARY_TAGS}
    assert sides == {"bottom": 3, "right": 2, "top": 3, "left": 2}
    assert len(m.boundary_edges()) == 10


def test_edge_incidence():
    m = build_structured(3, 3)
    _, _, edge_cells = loop_connectivity(m.cells)
    boundary = set(m.boundary_edges().tolist())
    interior = 0
    for e in range(m.n_edges):
        c0, c1 = edge_cells[e]
        assert c0 >= 0
        if e in boundary:
            assert c1 == -1
        else:
            assert c1 >= 0
            interior += 1
            # the two incident cells traverse the shared edge in
            # opposite directions (consistent counterclockwise cells)
            directions = []
            for c in (c0, c1):
                verts = list(m.cells[c])
                a, b = m.edges[e]
                ia = verts.index(a)
                directions.append(verts[(ia + 1) % 3] == b)
            assert directions[0] != directions[1]
    assert interior == m.n_edges - len(boundary)


def test_cell_geometry_identity_and_scaling():
    ref = SimpleNamespace(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), cells=np.array([[0, 1, 2]])
    )
    jac, inv_t, area = cell_geometry(ref, 0)
    assert np.allclose(jac, np.eye(2))
    assert np.allclose(inv_t, np.eye(2))
    assert area == pytest.approx(0.5)

    h = 0.25
    scaled = SimpleNamespace(
        vertices=np.array([[0.0, 0.0], [h, 0.0], [0.0, h]]), cells=np.array([[0, 1, 2]])
    )
    jac, inv_t, area = cell_geometry(scaled, 0)
    assert np.allclose(jac, h * np.eye(2))
    assert area == pytest.approx(h * h / 2.0)


def test_cell_geometry_sheared_cell():
    # hand determinant of [[1, 1], [0, 1]] is 1, so area is 1/2
    m = build_structured(1, 1)
    jac, _, area = cell_geometry(m, 0)
    assert jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0] == pytest.approx(1.0)
    assert area == pytest.approx(0.5)


def test_cell_geometry_degenerate_cell():
    bad = SimpleNamespace(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), cells=np.array([[0, 1, 2]])
    )
    with pytest.raises(ValueError):
        cell_geometry(bad, 0)


def test_deterministic_construction():
    a = build_structured(5, 4, (0.0, 0.0, 2.5, 1.0))
    b = build_structured(5, 4, (0.0, 0.0, 2.5, 1.0))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cell_edges, b.cell_edges)
    for tag in (None,) + BOUNDARY_TAGS:
        assert np.array_equal(a.boundary_edges(tag), b.boundary_edges(tag))


def loop_connectivity(cells):
    """Edges, cell edges and edge cells as the pair-wise unique and the
    cell loop build them: the reference for the vectorised construction."""
    nc = len(cells)
    pairs = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    cell_edges = inverse.reshape(3, nc).T.copy()
    edge_cells = np.full((len(edges), 2), -1, dtype=np.int64)
    for c in range(nc):
        for e in cell_edges[c]:
            edge_cells[e, 0 if edge_cells[e, 0] < 0 else 1] = c
    return edges, cell_edges, edge_cells


def loop_cell_diameters(m):
    """Longest side of each cell, measured cell by cell."""
    p = m.vertices[m.cells]
    d01 = np.hypot(*(p[:, 0] - p[:, 1]).T)
    d12 = np.hypot(*(p[:, 1] - p[:, 2]).T)
    d20 = np.hypot(*(p[:, 2] - p[:, 0]).T)
    return np.maximum(np.maximum(d01, d12), d20)


# finite rectangles (x0, y0, x1, y1) with sides of 1e-3 to 1e3 anywhere in [-1e3, 1e3]^2
RECTANGLES = st.tuples(*[st.floats(-1e3, 1e3)] * 2, *[st.floats(1e-3, 1e3)] * 2).map(
    lambda r: (r[0], r[1], r[0] + r[2], r[1] + r[3]))


def loop_boundary_tags(m, edges, edge_cells):
    """Side of each edge with one cell as an edge loop finds it: the first
    side, in the order bottom, right, top, left, that its midpoint lies on."""
    x0, y0, x1, y1 = m.rect
    tol = 1e-12 * max(x1 - x0, y1 - y0)
    tags = {}
    for e in np.nonzero(edge_cells[:, 1] < 0)[0]:
        mx, my = 0.5 * (m.vertices[edges[e, 0]] + m.vertices[edges[e, 1]])
        sides = (abs(my - y0) < tol, abs(mx - x1) < tol, abs(my - y1) < tol, abs(mx - x0) < tol)
        tags[int(e)] = BOUNDARY_TAGS[sides.index(True)]
    return tags


def check_connectivity(nx, ny, rect):
    m = build_structured(nx, ny, rect)
    edges, cell_edges, edge_cells = loop_connectivity(m.cells)
    for got, ref in zip((m.edges, m.cell_edges), (edges, cell_edges)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert m.h == loop_cell_diameters(m).max()  # bitwise: the longest edge is the largest diameter
    check_boundary_tags(m, edges, edge_cells)


def check_boundary_tags(m, edges, edge_cells):
    tags = loop_boundary_tags(m, edges, edge_cells)
    for tag in (None,) + BOUNDARY_TAGS:
        got, ref = m.boundary_edges(tag), [e for e, t in tags.items() if tag in (None, t)]
        assert got.dtype == np.int64 and np.array_equal(got, ref) and not got.flags.writeable


@pytest.mark.parametrize("nx, ny, rect", [(1, 1, (0.0, 0.0, 1.0, 1.0)), (3, 2, (0.0, 0.0, 1.0, 1.0)),
                                          (23, 23, (0.0, 0.0, 1.0, 1.0)), (64, 32, (0.0, 0.0, 2.0, 1.0))])
def test_connectivity_matches_the_cell_loop(nx, ny, rect):
    check_connectivity(nx, ny, rect)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), RECTANGLES)
def test_connectivity_matches_the_cell_loop_on_random_rectangles(nx, ny, rect):
    check_connectivity(nx, ny, rect)


@pytest.mark.parametrize("nx, ny, rect", [(1, 1, (0.0, 0.0, 1.0, 1.0)), (3, 2, (-1.0, 0.5, 2.0, 1.3)),
                                          (64, 32, (0.0, 0.0, 2.0, 1.0)), (5, 7, (1e3, -2e-3, 1e3 + 1e-2, 0.0))])
def test_boundary_tags_match_the_edge_loop(nx, ny, rect):
    m = build_structured(nx, ny, rect)
    edges, _, edge_cells = loop_connectivity(m.cells)
    check_boundary_tags(m, edges, edge_cells)


def test_unknown_boundary_tag_rejected():
    with pytest.raises(ValueError, match="unknown boundary tag 'north'"):
        build_structured(2, 2).boundary_edges("north")
