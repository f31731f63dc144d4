"""Global function spaces: DOF maps, boundary data, interpolation, evaluation.

DOF numbering is entity-based and deterministic: vertices, then edges, then
cells, each entity's DOFs consecutive, as many as the element's layout row
(DOFs per vertex, per edge, per cell) gives:

===============  =========  ==============================================
family           layout     global numbering
===============  =========  ==============================================
p1 (cont.)       (1, 0, 0)  vertex index
p2 (cont.)       (1, 1, 0)  vertices, then edge midpoints (nv + edge)
p1bubble         (1, 0, 1)  vertices, then cell bubbles (nv + cell)
dg1              (0, 0, 3)  3 * cell + local vertex
dg0              (0, 0, 1)  cell
vector           2 x row    2 * scalar dof + component (interleaved)
bernardi-raugel  (2, 1, 0)  interleaved vertex components, then edge
                            bubbles (2 * nv + edge)
===============  =========  ==============================================
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Number

import numpy as np

from .elements import ScalarElement, VectorElement, reference_point, scalar_element, vector_element
from .mesh import TAG_APPLICATION_ORDER, Mesh, cell_geometry

# 3-point Gauss-Legendre on [0, 1], for the edge fluxes of the Bernardi-Raugel interpolant
_EDGE_QP = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
_EDGE_QW = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(eq=False)
class FunctionSpace:
    mesh: Mesh
    family: str
    element: ScalarElement | VectorElement
    vector: bool
    cell_dofs: np.ndarray  # (nc, n_local)
    n_dofs: int
    dirichlet_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.cell_dofs = np.ascontiguousarray(self.cell_dofs, dtype=np.int64)

    def __repr__(self):
        kind = "vector" if self.vector else "scalar"
        return f"FunctionSpace({self.family}, {kind}, {self.n_dofs} dofs)"

    @property
    def local_dofs(self) -> np.ndarray:
        """The DOFs that couple only inside their own cell, (nc, k): the cell
        DOFs, which are all of a discontinuous space's and the MINI bubbles."""
        return self.cell_dofs[:, self.cell_dofs.shape[1] - self.element.layout[2] :]


@dataclass(eq=False)
class DiscreteField:
    space: FunctionSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient vector of length {len(self.coefficients)} does not "
                f"match space with {self.space.n_dofs} dofs"
            )


def _cell_dofs(mesh: Mesh, layout) -> tuple[np.ndarray, int]:
    """The cell DOF map and DOF count of a layout row, written column by column
    (one long strided pass each), or at once where one entity fills the row."""
    nc = mesh.n_cells
    cell_dofs = np.empty((nc, layout.n_local), dtype=np.int64)
    columns = iter(cell_dofs.T)
    entities = ((mesh.cells, mesh.n_vertices), (mesh.cell_edges, mesh.n_edges), (np.arange(nc)[:, None], nc))
    offset = 0
    for (ids, count), k in zip(entities, layout):
        if k == 1 and ids.shape == cell_dofs.shape:
            np.add(ids, offset, out=cell_dofs)
        else:
            for local in ids.T if k else ():  # the k DOFs of each local entity
                scaled = k * local
                for j in range(k):
                    np.add(scaled, offset + j, out=next(columns))
        offset += k * count
    return cell_dofs, offset


def build_space(mesh: Mesh, family: str, vector: bool = False) -> FunctionSpace:
    """Assemble the global DOF map for one field.

    Velocity (vector) spaces also collect the DOFs with nonzero boundary
    trace, ready for Dirichlet elimination.
    """
    vector = vector or family == "bernardi-raugel"
    elem = vector_element(family) if vector else scalar_element(family)
    space = FunctionSpace(mesh, family, elem, vector, *_cell_dofs(mesh, elem.layout))
    if vector:
        space.dirichlet_dofs = _edge_dofs(space, mesh.boundary_edges())
    return space


def _edge_dofs(space: FunctionSpace, edges: np.ndarray) -> np.ndarray:
    """The velocity DOFs with nonzero trace on the given edges: those of the
    edges and their vertices (the interior MINI bubble has zero trace)."""
    mesh = space.mesh
    per_vertex, per_edge, _ = space.element.layout
    verts = np.unique(mesh.edges[edges].ravel())
    dofs = [per_vertex * verts + j for j in range(per_vertex)]
    dofs += [per_vertex * mesh.n_vertices + per_edge * edges + j for j in range(per_edge)]
    return np.sort(np.concatenate(dofs))  # the edges are distinct, so this is np.unique


#: Element stacks by name: velocity family, pressure family, and the
#: vorticity spaces with proven convergence rates.
STACKS = {
    "taylor-hood": ("p2", "p1", ("cg1", "dg1")),
    "mini": ("p1bubble", "p1", ("cg1", "dg1")),
    "bernardi-raugel": ("bernardi-raugel", "dg0", ("cg1", "dg0")),
}
#: Vorticity spaces by name, with their scalar family.
VORTICITY_SPACES = {"cg1": "p1", "dg0": "dg0", "dg1": "dg1"}


def check_method(family: str, vorticity: str):
    """Reject an element family or vorticity space not named in the tables."""
    if family not in STACKS:
        raise ValueError(f"unknown element family {family!r}; choose from {sorted(STACKS)}")
    if vorticity not in VORTICITY_SPACES:
        raise ValueError(f"unknown vorticity space {vorticity!r}; choose from {sorted(VORTICITY_SPACES)}")


def method_spaces(mesh: Mesh, family: str, vorticity: str = "dg1"):
    """Velocity/vorticity/pressure spaces of one discretisation stack.

    ``family``: taylor-hood (P2/P1), mini (P1+bubble/P1) or
    bernardi-raugel (P1+edge bubbles/P0).  The vorticity space is free;
    a pairing outside the ones with proven convergence rates only warns.
    """
    check_method(family, vorticity)
    vfam, pfam, covered = STACKS[family]
    if vorticity not in covered:
        warnings.warn(
            f"vorticity space {vorticity!r} with {family!r} is outside the pairings "
            f"with proven rates {covered}",
            stacklevel=2,
        )
    V = build_space(mesh, vfam, vector=True)
    W = build_space(mesh, VORTICITY_SPACES[vorticity])
    Q = build_space(mesh, pfam)
    return V, W, Q


# ---------------------------------------------------------------------------
# boundary data


def _as_vector_fn(g):
    if callable(g):
        return g
    try:  # None is zero; a constant is exactly two numbers in a tuple, list or array
        if not (g is None or isinstance(g, (tuple, list, np.ndarray)) and all(isinstance(x, Number) for x in g)):
            raise TypeError
        gx, gy = (0.0, 0.0) if g is None else map(float, g)
    except (TypeError, ValueError):
        raise ValueError(f"a constant boundary value must be two numbers, got {g!r}") from None
    return lambda x, y: np.stack([np.full_like(x, gx), np.full_like(x, gy)], axis=-1)


def boundary_values(space: FunctionSpace, g) -> np.ndarray:
    """Dirichlet values aligned with ``space.dirichlet_dofs``.

    ``g`` is a vectorized callable (x, y) -> (..., 2), a constant pair,
    None (zero), or a dict mapping boundary tags to any of those.  Each
    group takes its interpolant's values at the DOFs with trace on its
    edges, applied bottom, right, left, top, so at corners the top (lid)
    value overwrites the side values.
    """
    if not space.vector:
        raise ValueError("boundary_values expects a velocity (vector) space")
    if isinstance(g, dict):
        unknown = set(g) - set(TAG_APPLICATION_ORDER)
        if unknown:
            raise ValueError(f"unknown boundary tags {sorted(unknown)}")
        groups = [(tag, g.get(tag)) for tag in TAG_APPLICATION_ORDER]
    else:
        groups = [(None, g)]
    values = np.zeros(space.n_dofs)
    for tag, fn in groups:  # a None group writes its zeros without interpolating
        dofs = _edge_dofs(space, space.mesh.boundary_edges(tag))
        values[dofs] = 0.0 if fn is None else interpolate(space, fn).coefficients[dofs]
    return values[space.dirichlet_dofs]


# ---------------------------------------------------------------------------
# interpolation


def _edge_flux_coefficients(mesh, fn, gv):
    """Bubble coefficients matching the mean normal flux of ``fn`` per edge.

    The bubble with unit coefficient carries normal flux |e| / 6, and the
    vertex part carries the trapezoidal flux of the vertex values ``gv``.
    """
    va, vb = mesh.edges[:, 0], mesh.edges[:, 1]
    pa, pb = mesh.vertices[va], mesh.vertices[vb]
    normals, lengths = mesh.edge_normals, mesh.edge_lengths
    pts = pa[:, None, :] + _EDGE_QP[None, :, None] * (pb - pa)[:, None, :]
    gq = fn(pts[..., 0], pts[..., 1])
    flux = lengths * np.einsum("q,eqi,ei->e", _EDGE_QW, gq, normals)
    lin_flux = 0.5 * lengths * np.einsum("ei,ei->e", gv[va] + gv[vb], normals)
    return (flux - lin_flux) / (lengths / 6.0)


def interpolate(space: FunctionSpace, fn) -> DiscreteField:
    """Nodal interpolant of an analytic (vectorized) point function.

    Exactly reproduces any function in the local space: Lagrange families
    by the usual node evaluation, the MINI bubble by matching the centroid
    value, and the edge-normal bubbles by matching edge-mean normal flux.
    """
    mesh = space.mesh
    if space.vector:
        fn = _as_vector_fn(fn)
    elif not callable(fn):
        raise ValueError(f"a scalar space interpolates a point function, got {fn!r}")
    # the Lagrange nodes of the scalar element (P1 under the Bernardi-Raugel
    # edge bubbles): vertices, edge midpoints, and a cell's corners or centroid
    per_vertex, per_edge, per_cell = (space.element.scalar if space.vector else space.element).layout
    corners = mesh.vertices[mesh.cells]
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    cell_nodes = corners if per_cell == 3 else corners.mean(axis=1, keepdims=True)
    entity_nodes = zip((mesh.vertices[:, None], mids[:, None], cell_nodes), (per_vertex, per_edge, per_cell))
    nodes = np.concatenate([x[:, :k].reshape(-1, 2) for x, k in entity_nodes])
    values = np.zeros((len(nodes), 2) if space.vector else len(nodes))
    values[:] = fn(nodes[:, 0], nodes[:, 1])
    if space.family == "p1bubble":  # the bubble carries the centroid value less the vertex mean
        nv = mesh.n_vertices
        values[nv:] = 27.0 * (values[nv:] - values[:nv][mesh.cells].mean(axis=1))
    coefs = values.ravel()  # vector components interleaved
    if space.family == "bernardi-raugel":
        coefs = np.concatenate([coefs, _edge_flux_coefficients(mesh, fn, values)])
    return DiscreteField(space, coefs)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(eq=False)
class SpaceTabulation:
    """The reference shapes and gradients of one space at a fixed point set,
    the same in every cell; a vector basis's directions are the cells' own."""

    space: FunctionSpace
    shapes: np.ndarray  # (n_local, npts)
    dshapes: np.ndarray  # (n_local, npts, 2)


def tabulate(space: FunctionSpace, points: np.ndarray) -> SpaceTabulation:
    """The reference shapes and gradients of ``space`` at ``points``."""
    return SpaceTabulation(space, *space.element.tabulate(points))


def physical_gradients(tab: SpaceTabulation, inv: np.ndarray) -> np.ndarray:
    """Shape gradients in physical coordinates, (ncells, n_local, npts, 2)."""
    return np.einsum("bqk,cki->cbqi", tab.dshapes, inv, optimize=True)


def eval_field(field: DiscreteField, tab: SpaceTabulation, cells, inv, grad: bool = False):
    """Field values (and optionally gradients) at the tabulated points.

    Returns values of shape (ncells, npts) or (ncells, npts, 2) and, when
    requested, gradients (ncells, npts, 2) or (ncells, npts, 2, 2) with
    layout grad[..., i, j] = d v_i / d x_j.

    ``cells`` are any cells of the field's mesh, in any order, and ``inv``
    their inverse Jacobians (read only for ``grad``).  The field is
    contracted before it is mapped: the cell coefficients (times a vector
    basis's directions on ``cells``) meet the reference shapes and
    gradients in one GEMM, then each cell's ``inv`` maps its gradients.
    """
    coefs = field.coefficients[field.space.cell_dofs[cells]][:, None, :]  # (cells, component, basis)
    if field.space.vector:
        coefs = coefs * field.space.element.directions(field.space.mesh, cells).transpose(0, 2, 1)
    nc, ni, nb = coefs.shape
    coefs = coefs.reshape(nc * ni, nb)
    vals = (coefs @ tab.shapes).reshape(nc, ni, -1).transpose(0, 2, 1)
    if not field.space.vector:
        vals = vals[..., 0]
    if not grad:
        return vals
    grads = ((coefs @ tab.dshapes.reshape(nb, -1)).reshape(nc, -1, 2) @ inv).reshape(nc, ni, -1, 2)
    return vals, (grads.transpose(0, 2, 1, 3) if field.space.vector else grads[:, 0])


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Pointwise value/derivative bundle from :func:`eval_cell`; a vector
    field's curl and divergence follow from its gradient."""

    value: np.ndarray | float
    gradient: np.ndarray
    vector: bool

    @property
    def curl2d(self) -> float:
        if not self.vector:
            raise ValueError("curl2d is only defined for vector fields")
        return self.gradient[1, 0] - self.gradient[0, 1]

    @property
    def div2d(self) -> float:
        if not self.vector:
            raise ValueError("div2d is only defined for vector fields")
        return self.gradient[0, 0] + self.gradient[1, 1]


def eval_cell(field: DiscreteField, cell: int, point) -> EvalResult:
    """Evaluate a field inside one cell at a reference point."""
    space = field.space
    pt = reference_point(point)
    _, inv_t, _ = cell_geometry(space.mesh, cell)
    vals, grads = eval_field(field, tabulate(space, pt), [cell], inv_t.T[None], grad=True)
    return EvalResult(vals[0, 0] if space.vector else float(vals[0, 0]), grads[0, 0], space.vector)


def vertex_values(field: DiscreteField) -> np.ndarray:
    """Field sampled at mesh vertices; discontinuous fields are averaged
    over the incident cells, summed corner by corner in cell order."""
    mesh = field.space.mesh
    ref_corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tab = tabulate(field.space, ref_corners)
    vals = eval_field(field, tab, slice(None), None, grad=False)
    corners, nv = mesh.cells.T.ravel(), mesh.n_vertices
    acc = np.column_stack([np.bincount(corners, v, nv) for v in vals.swapaxes(0, 1).reshape(len(corners), -1).T])
    acc /= np.bincount(corners, minlength=nv)[:, None]
    return acc if field.space.vector else acc[:, 0]
