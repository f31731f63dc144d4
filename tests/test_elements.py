import numpy as np
import pytest

from vvpflow.elements import reference_basis, scalar_element, vector_element
from vvpflow.mesh import build_structured

RNG = np.random.default_rng(1234)


def random_reference_points(n):
    # uniform in the triangle by folding the unit square
    p = RNG.random((n, 2))
    fold = p.sum(axis=1) > 1.0
    p[fold] = 1.0 - p[fold]
    return p


def test_p1_vertex_values():
    vals, _ = reference_basis("p1", (0.0, 0.0))
    assert np.allclose(vals, [1.0, 0.0, 0.0])


def test_p2_lagrange_property():
    nodes = np.array(
        [[0, 0], [1, 0], [0, 1], [0.5, 0], [0.5, 0.5], [0, 0.5]], dtype=float
    )
    elem = scalar_element("p2")
    vals, _ = elem.tabulate(nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_bubble_value_at_centroid():
    vals, _ = reference_basis("p1bubble", (1.0 / 3.0, 1.0 / 3.0))
    assert vals[3] == pytest.approx(1.0 / 27.0, abs=1e-16)


@pytest.mark.parametrize("family", ["p1", "p2"])
def test_partition_of_unity(family):
    elem = scalar_element(family)
    pts = random_reference_points(50)
    vals, grads = elem.tabulate(pts)
    assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-13
    assert np.abs(grads.sum(axis=0)).max() < 1e-13


@pytest.mark.parametrize("family", ["p1", "p2", "p1bubble", "dg1", "dg0"])
def test_gradients_match_finite_differences(family):
    elem = scalar_element(family)
    pts = 0.1 + 0.3 * RNG.random((20, 2))
    eps = 1e-6
    _, grads = elem.tabulate(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        vp, _ = elem.tabulate(pts + shift)
        vm, _ = elem.tabulate(pts - shift)
        fd = (vp - vm) / (2.0 * eps)
        assert np.abs(fd - grads[..., axis]).max() < 1e-8


def test_point_outside_reference_triangle():
    with pytest.raises(ValueError):
        reference_basis("p1", (0.7, 0.7))
    with pytest.raises(ValueError):
        reference_basis("p2", (-0.1, 0.2))


def test_unknown_family():
    with pytest.raises(ValueError):
        scalar_element("p3")
    with pytest.raises(ValueError):
        vector_element("dg0")


def test_componentwise_vector_layout():
    elem = vector_element("p2")
    assert elem.n_local == 12
    mesh = build_structured(2, 2)
    dirs = elem.directions(mesh)
    assert dirs.shape == (mesh.n_cells, 12, 2)
    assert np.allclose(dirs[0, 0::2], [1.0, 0.0])
    assert np.allclose(dirs[0, 1::2], [0.0, 1.0])


class TestBernardiRaugelBubbles:
    def setup_method(self):
        self.elem = vector_element("bernardi-raugel")
        self.mesh = build_structured(2, 2)
        self.dirs = self.elem.directions(self.mesh)

    def test_zero_at_vertices(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        shapes, _ = self.elem.tabulate(verts)
        assert np.abs(shapes[6:9]).max() == 0.0

    def test_edge_traces(self):
        # on its own edge the bubble is the quadratic lambda_i lambda_j
        # times the shared unit normal: tangential trace zero by design
        t = np.linspace(0.0, 1.0, 7)
        edge_points = [
            np.column_stack([t, np.zeros_like(t)]),       # local edge 0: (0,0)-(1,0)
            np.column_stack([1.0 - t, t]),                # local edge 1: (1,0)-(0,1)
            np.column_stack([np.zeros_like(t), 1.0 - t]), # local edge 2: (0,1)-(0,0)
        ]
        lam_products = [t * (1.0 - t)] * 3
        for k, (pts, lam) in enumerate(zip(edge_points, lam_products)):
            shapes, _ = self.elem.tabulate(pts)
            assert np.allclose(shapes[6 + k], lam, atol=1e-14)
            # the two other bubbles vanish on this edge
            for other in range(3):
                if other != k:
                    assert np.abs(shapes[6 + other]).max() < 1e-14

    def test_directions_are_unit_normals_shared_across_cells(self):
        norms = np.hypot(self.dirs[:, 6:9, 0], self.dirs[:, 6:9, 1])
        assert np.allclose(norms, 1.0)
        seen = {}
        for c in range(self.mesh.n_cells):
            for k in range(3):
                e = self.mesh.cell_edges[c, k]
                d = tuple(np.round(self.dirs[c, 6 + k], 14))
                assert seen.setdefault(e, d) == d
