"""The affine cell classes and the class-table assembly against a per-cell reference."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from assembled_parts import parts
from vvpflow.assembly import SystemAssembler, VelocityClasses, assemble_gram_X, default_quad_degree, gram_values
from vvpflow.mesh import build_structured, geometry_arrays
from vvpflow.quadrature import CellQuadrature, physical_points, quadrature
from vvpflow.spaces import (
    DiscreteField,
    build_space,
    eval_cell,
    eval_field,
    interpolate,
    method_spaces,
    physical_gradients,
    tabulate,
)
from vvpflow.verify import coefficients_from_case, example1_case_2d

RNG = np.random.default_rng(7)
STACKS = [("taylor-hood", "dg1"), ("mini", "cg1"), ("bernardi-raugel", "dg0")]


def perturbed_mesh(n):
    """A structured n x n mesh of the unit square whose interior vertices
    are moved by up to h/5, so that no two cells share (inv, det)."""
    mesh = build_structured(n, n)
    x, y = mesh.vertices.T
    interior = (x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)
    mesh.vertices[interior] += RNG.uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    t = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    mesh.edge_lengths = np.hypot(t[:, 0], t[:, 1])
    mesh.edge_normals = np.column_stack([t[:, 1], -t[:, 0]]) / mesh.edge_lengths[:, None]
    return mesh


MESHES = {"23x23": lambda: build_structured(23, 23), "perturbed": lambda: perturbed_mesh(6)}


def class_count(mesh, family="taylor-hood", vorticity="dg1"):
    V = method_spaces(mesh, family, vorticity)[0]
    quad = CellQuadrature(mesh, default_quad_degree(V))
    return len(quad.classes(V.element.directions(mesh))[0])


@pytest.mark.parametrize("family", ["taylor-hood", "bernardi-raugel"])
def test_class_counts(family):
    vorticity = "dg0" if family == "bernardi-raugel" else "dg1"
    assert class_count(build_structured(64, 64), family, vorticity) == 2
    assert class_count(build_structured(64, 32, (0.0, 0.0, 2.0, 1.0)), family, vorticity) == 2
    # linspace spacing varies in the last bit
    assert class_count(build_structured(23, 23), family, vorticity) == 32
    mesh = perturbed_mesh(6)
    assert class_count(mesh, family, vorticity) == mesh.n_cells


def test_classes_group_bitwise_equal_geometry():
    quad = CellQuadrature(build_structured(23, 23), 2)
    first, label = quad.classes()
    for k, cell in enumerate(first):
        members = label == k
        assert np.all(quad.inv[members] == quad.inv[cell]) and np.all(quad.det[members] == quad.det[cell])
        assert label[cell] == k and np.flatnonzero(members)[0] == cell


def _scatter(rows_map, cols_map, local):
    rows = np.repeat(rows_map, cols_map.shape[1], axis=1).ravel()
    cols = np.tile(cols_map, (1, rows_map.shape[1])).ravel()
    return rows, cols, local.ravel()


def per_cell_reference(spaces, coeffs, beta):
    """Oseen matrix and rhs, Newton matrix at u_h = beta and Gram matrix,
    each local matrix computed cell by cell from the per-cell physical
    basis."""
    V, W, Q = spaces
    mesh = V.mesh
    nc = mesh.n_cells
    rule = quadrature(default_quad_degree(V))
    jac, inv, det = geometry_arrays(mesh)
    wdet = rule.weights[None, :] * det[:, None]
    xq = physical_points(rule, jac, mesh.vertices[mesh.cells[:, 0]])
    x, y = xq[..., 0], xq[..., 1]
    tab = tabulate(V, rule.points)
    dirs = V.element.directions(mesh)
    vv = np.einsum("bq,cbi->cbqi", tab.shapes, dirs)
    gv = np.einsum("cbqj,cbi->cbqij", physical_gradients(tab, inv), dirs)
    curl = gv[..., 1, 0] - gv[..., 0, 1]
    div = gv[..., 0, 0] + gv[..., 1, 1]
    wv, pv = tabulate(W, rule.points).shapes, tabulate(Q, rule.points).shapes
    nu, sig, gnu, f = coeffs.nu(x, y), coeffs.sigma(x, y), coeffs.grad_nu(x, y), coeffs.f(x, y)
    bv, gb = eval_field(beta, tab, np.arange(nc), inv, grad=True)
    k1, k2 = coeffs.kappa1, coeffs.kappa2

    eps_gnu = 0.5 * (np.einsum("cbqij,cqj->cbqi", gv, gnu) + np.einsum("cbqji,cqj->cbqi", gv, gnu))
    cross = gnu[:, None, :, 0] * vv[..., 1] - gnu[:, None, :, 1] * vv[..., 0]
    uu = (
        np.einsum("cq,caqi,cbqi->cab", wdet * sig, vv, vv)
        + k1 * np.einsum("cq,caq,cbq->cab", wdet, curl, curl)
        + k2 * np.einsum("cq,caq,cbq->cab", wdet, div, div)
        - 2.0 * np.einsum("cq,cbqi,caqi->cab", wdet, eps_gnu, vv)
        + np.einsum("cq,cqj,cbqij,caqi->cab", wdet, bv, gv, vv)
    )
    dual = np.einsum("cq,cqij,cbqj,caqi->cab", wdet, gb, vv, vv)
    uw = np.einsum("cq,caq,bq->cab", wdet * (nu - k1), curl, wv) + np.einsum("cq,caq,bq->cab", wdet, cross, wv)
    wu = -np.einsum("cq,caq,bq->cba", wdet * nu, curl, wv)
    ww = np.einsum("cq,aq,bq->cab", wdet * nu, wv, wv)
    up = -np.einsum("cq,caq,bq->cab", wdet, div, pv)
    pmass = np.einsum("cq,bq->cb", wdet, pv)

    n_u, n_w, n_p = V.n_dofs, W.n_dofs, Q.n_dofs
    u, w, p = V.cell_dofs, W.cell_dofs + n_u, Q.cell_dofs + n_u + n_w
    m = np.full((nc, 1), n_u + n_w + n_p)
    n = n_u + n_w + n_p + 1
    triplets = [
        _scatter(u, u, uu), _scatter(u, w, uw), _scatter(w, u, wu), _scatter(w, w, ww),
        _scatter(u, p, up), _scatter(p, u, up.transpose(0, 2, 1)), _scatter(m, p, pmass[:, None]),
        _scatter(p, m, pmass[..., None]),
    ]

    def assemble(parts, size):
        rows, cols, vals = (np.concatenate(t) for t in zip(*parts))
        return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()

    oseen = assemble(triplets, n)
    newton = assemble(triplets + [_scatter(u, u, dual)], n)
    rhs = np.zeros(n)
    np.add.at(rhs, u, np.einsum("cq,caqi,cqi->ca", wdet, vv, f))
    gram_u = (
        np.einsum("cq,caqi,cbqi->cab", wdet, vv, vv)
        + np.einsum("cq,caq,cbq->cab", wdet, curl, curl)
        + np.einsum("cq,caq,cbq->cab", wdet, div, div)
    )
    gram = assemble([_scatter(u, u, gram_u), _scatter(w, w, np.einsum("cq,aq,bq->cab", wdet, wv, wv))], n_u + n_w)
    return oseen, rhs, newton, gram


def _relative_gap(a, b):
    return abs(a - b).max() / abs(b).max()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("family, vorticity", STACKS)
def test_class_tables_match_the_per_cell_reference(mesh_name, family, vorticity):
    coeffs = coefficients_from_case(example1_case_2d())
    spaces = method_spaces(MESHES[mesh_name](), family, vorticity)
    asm = SystemAssembler(spaces, coeffs)
    state = RNG.standard_normal(asm.block_index[4])
    beta = DiscreteField(spaces[0], state[: asm.block_index[1]])
    oseen, rhs, newton, gram = per_cell_reference(spaces, coeffs, beta)
    system = asm.oseen(beta=beta)
    assert _relative_gap(system.matrix, oseen) <= 1e-13
    assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()
    assert _relative_gap(asm.newton_system(state)[0].matrix, newton) <= 1e-13
    # the velocity Gram values the solve's increment norms use, cell by cell
    d = beta.coefficients[spaces[0].cell_dofs]
    cellwise = np.einsum("ca,cab,cb->", d, gram_values(asm.classes, asm.W)[0].reshape(len(d), d.shape[1], -1), d)
    x = np.concatenate([beta.coefficients, np.zeros(spaces[1].n_dofs)])
    assert abs(cellwise - x @ (gram @ x)) <= 1e-13 * (x @ (gram @ x))
    assert _relative_gap(assemble_gram_X(spaces), gram) <= 1e-13


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("family, vorticity", STACKS)
def test_skew_pairing_identity_on_many_classes(mesh_name, family, vorticity):
    # N(b;u,v) + N(b;v,u) + (div b, u.v) = 0 for zero-trace u, v under exact quadrature
    coeffs = coefficients_from_case(example1_case_2d())
    spaces = method_spaces(MESHES[mesh_name](), family, vorticity)
    V = spaces[0]
    beta = interpolate(V, lambda x, y: np.stack([x**2 + 2.0 * y, x + y], axis=-1))
    K = parts(SystemAssembler(spaces, coeffs), beta)["uu_conv"][: V.n_dofs, : V.n_dofs]
    free = np.setdiff1d(np.arange(V.n_dofs), V.dirichlet_dofs)
    u, v = np.zeros(V.n_dofs), np.zeros(V.n_dofs)
    u[free], v[free] = RNG.standard_normal((2, len(free)))
    quad = CellQuadrature(V.mesh, default_quad_degree(V))
    tab = tabulate(V, quad.rule.points)
    cells = np.arange(V.mesh.n_cells)
    gb = eval_field(beta, tab, cells, quad.inv, grad=True)[1]
    uq = eval_field(DiscreteField(V, u), tab, cells, quad.inv)
    vq = eval_field(DiscreteField(V, v), tab, cells, quad.inv)
    wdet = quad.rule.weights[None, :] * quad.det[:, None]
    pairing = float(np.einsum("cq,cq,cqi,cqi->", wdet, gb[..., 0, 0] + gb[..., 1, 1], uq, vq))
    n1, n2 = float(v @ (K @ u)), float(u @ (K @ v))
    assert abs(n1 + n2 + pairing) / max(abs(n1), abs(n2), abs(pairing)) < 1e-10


def per_cell_field(field, tab, inv):
    """Values and gradients of a field from the per-cell physical basis."""
    coefs = field.coefficients[field.space.cell_dofs]
    dphys = physical_gradients(tab, inv)
    if not field.space.vector:
        return np.einsum("cb,bq->cq", coefs, tab.shapes), np.einsum("cb,cbqj->cqj", coefs, dphys)
    dirs = field.space.element.directions(field.space.mesh)
    return np.einsum("cb,bq,cbi->cqi", coefs, tab.shapes, dirs), np.einsum("cb,cbqj,cbi->cqij", coefs, dphys, dirs)


@pytest.mark.parametrize("family, vector", [("p2", True), ("p1bubble", True), ("bernardi-raugel", True),
                                            ("p1", False), ("dg0", False), ("dg1", False)])
def test_eval_field_matches_the_per_cell_basis(family, vector):
    mesh = perturbed_mesh(6)
    space = build_space(mesh, family, vector=vector)
    field = DiscreteField(space, RNG.standard_normal(space.n_dofs))
    _, inv, _ = geometry_arrays(mesh)
    tab = tabulate(space, quadrature(6).points)
    for got, ref in zip(eval_field(field, tab, np.arange(mesh.n_cells), inv, grad=True), per_cell_field(field, tab, inv)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # one interior point of one cell
    cell, point = 17, np.array([0.2, 0.3])
    value, gradient = (a[cell, 0] for a in per_cell_field(field, tabulate(space, point[None]), inv))
    at = eval_cell(field, cell, point)
    assert np.abs(at.value - value).max() <= 1e-13 * np.abs(value).max()
    assert np.abs(at.gradient - gradient).max() <= 1e-13 * np.abs(gradient).max()


FAMILIES = [("p2", True), ("p1bubble", True), ("bernardi-raugel", True), ("p1", False), ("dg0", False), ("dg1", False)]


def jittered_mesh(nx, ny, rect, rng, jitter):
    """A structured mesh of ``rect`` whose interior vertices are moved by up to
    ``jitter`` times the grid spacing in each coordinate."""
    mesh = build_structured(nx, ny, rect)
    x0, y0, x1, y1 = mesh.rect
    x, y = mesh.vertices.T
    interior = (x > x0) & (x < x1) & (y > y0) & (y < y1)
    spacing = np.array([(x1 - x0) / nx, (y1 - y0) / ny])
    mesh.vertices[interior] += rng.uniform(-jitter, jitter, (interior.sum(), 2)) * spacing
    t = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    mesh.edge_lengths = np.hypot(t[:, 0], t[:, 1])
    mesh.edge_normals = np.column_stack([t[:, 1], -t[:, 0]]) / mesh.edge_lengths[:, None]
    return mesh


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.tuples(*[st.floats(-10.0, 10.0)] * 2, *[st.floats(0.1, 10.0)] * 2),
       st.sampled_from([0.0, 0.2]), st.booleans(), st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
def test_fields_and_classes_on_any_cells_in_any_order(nx, ny, rect, jitter, flip, family, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(nx, ny, (rect[0], rect[1], rect[0] + rect[2], rect[1] + rect[3]), rng, jitter)
    if flip:  # an edge normal's sign is a convention its two cells share; flipped, it parts cells of one geometry
        mesh.edge_normals *= rng.choice([-1.0, 1.0], (mesh.n_edges, 1))
    _, inv, det = geometry_arrays(mesh)
    assume(np.all(det > 0))
    space = build_space(mesh, *family)
    field = DiscreteField(space, rng.standard_normal(space.n_dofs))
    # the cells, a random subset in random order, and one point in the reference triangle among the quadrature's
    cells = rng.permutation(mesh.n_cells)[: rng.integers(1, mesh.n_cells + 1)]
    point = rng.random(2)
    point = np.where(point.sum() > 1.0, 1.0 - point[::-1], point)
    tab = tabulate(space, np.vstack([quadrature(4).points, point]))
    got, refs = eval_field(field, tab, cells, inv[cells], grad=True), per_cell_field(field, tab, inv)
    for g, ref in zip(got, refs):
        assert np.abs(g - ref[cells]).max() <= 1e-13 * np.abs(ref).max()
    at = eval_cell(field, int(cells[-1]), point)
    for g, row, ref in zip((at.value, at.gradient), got, refs):
        assert np.abs(g - row[-1, -1]).max() <= 1e-13 * np.abs(ref).max()
    # two cells share a class exactly when their geometry and directions are equal
    dirs = space.element.directions(mesh) if space.vector else np.empty((mesh.n_cells, 0))
    quad = CellQuadrature(mesh, 2)
    first, label = quad.classes(dirs if space.vector else None)
    key = np.hstack([inv.reshape(-1, 4), det[:, None], dirs.reshape(mesh.n_cells, -1)])
    assert np.array_equal((key[:, None] == key[None]).all(axis=2), label[:, None] == label[None])
    assert np.array_equal(first, [np.flatnonzero(label == k)[0] for k in range(len(first))])
    if space.vector:  # one cell's directions describe no other cell
        with pytest.raises(ValueError):
            quad.classes(space.element.directions(mesh, [0]))


def test_physical_gradients_are_the_plain_einsum_bit_for_bit():
    V = method_spaces(build_structured(8, 8), "taylor-hood", "dg1")[0]
    quad = CellQuadrature(V.mesh, default_quad_degree(V))
    tab = tabulate(V, quad.rule.points)
    assert np.array_equal(physical_gradients(tab, quad.inv), np.einsum("bqk,cki->cbqi", tab.dshapes, quad.inv))


@pytest.mark.parametrize("mesh_name", ["8x8"] + sorted(MESHES))
def test_blocks_cover_every_cell_once_and_fill_writes_them_all(mesh_name):
    mesh = build_structured(8, 8) if mesh_name == "8x8" else MESHES[mesh_name]()
    V = method_spaces(mesh, "taylor-hood", "dg1")[0]
    quad = CellQuadrature(V.mesh, default_quad_degree(V))
    classes = VelocityClasses(quad, tabulate(V, quad.rule.points))
    nb = V.cell_dofs.shape[1]
    sizes = np.bincount(classes.label)
    seen = np.zeros(V.mesh.n_cells, dtype=int)
    out = np.full((V.mesh.n_cells, nb * nb), np.nan)
    n_shared = 0
    for block, (vv, _, _, _) in classes.blocks():
        ks, cells, _ = block
        if cells is None:  # shared classes
            assert np.all(sizes[ks] >= nb)
            for k in ks:
                seen[classes.members[k]] += 1
            n_shared += len(ks)
        else:  # single cells, with their classes
            assert np.all(classes.label[cells] == ks) and np.all(sizes[ks] < nb)
            seen[cells] += 1
        classes.fill(out, block, "kaqi,kbqi", (vv, vv))
    assert np.all(seen == 1)
    assert not np.isnan(out).any()
    # 23x23 mixes shared classes with classes of 9 < 12 cells; no perturbed cell shares its class
    assert n_shared == {"8x8": 2, "23x23": 24, "perturbed": 0}[mesh_name]
