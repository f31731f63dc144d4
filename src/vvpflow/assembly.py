"""Assembly of the augmented velocity-vorticity-pressure saddle system.

The block system over the concatenated unknowns [u | w | p | m] (m the
scalar multiplier fixing the pressure integral) realizes, cellwise by
quadrature,

    (sigma u, v) + kappa1 (curl u, curl v) + kappa2 (div u, div v)
    - 2 (eps(u) grad_nu, v) + ((beta . grad) u, v)
    + ((nu - kappa1) w, curl v) + (w, grad_nu x v)
    - (nu theta, curl u) + (nu w, theta)
    - (p, div v) - (q, div u) + m (q, 1) + (p, 1) row  =  (f, v)

with 2D conventions curl v = dx v2 - dy v1, curl of a scalar
th = (dy th, -dx th), and a x b = a1 b2 - a2 b1.

Every term falls on one block (uu, uw, wu, ww, up, pu, mp or pm).  One key
array per block, built once from the DOF maps in cell order, is shared by
all its terms; the fixed chunks of one :class:`CellQuadrature` produce only
their values, in the same order.  :class:`CSRPattern` maps the keys to CSR
slots, and each entry is the left-to-right sum of its contributions in part
and cell order, whatever else shares its row.  Repeated assemblies are
therefore bit-identical, and blocks built from the same floats in transposed
placement are exact transposes.  Convection (Oseen and Newton alike) adds
its values on the slots of the uu keys; Dirichlet elimination masks the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ordering import dof_support_centroids, nested_dissection
from .quadrature import CellQuadrature
from .spaces import DiscreteField, FunctionSpace, boundary_values, chunk_dirs, physical_gradients, tabulate


@dataclass
class ProblemCoefficients:
    """Pointwise problem data and the two augmentation weights.

    ``nu``, ``sigma`` map arrays (x, y) to arrays; ``grad_nu`` and ``f``
    map to arrays with a trailing component axis.  ``grad_nu`` is the
    analytic viscosity gradient (None means identically zero); supplying
    it as data avoids differentiation noise in the viscosity-gradient
    terms.  The bounds are those of :meth:`check_bounds`.
    """

    nu: callable
    sigma: callable
    f: callable
    kappa1: float
    kappa2: float
    nu0: float
    nu1: float
    sigma0: float
    sigma1: float
    grad_nu: callable | None = None
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            self.check_bounds()

    def check_bounds(self):
        """Reject bounds and weights outside 0 < sigma0 <= sigma1, 0 < nu0 <= nu1,
        kappa1 in (0, 2/3 nu0] and kappa2 > 0.  The upper end of kappa1 is
        admissible: the ellipticity margin kappa1 - 3 kappa1^2 / (4 nu0) is
        still nu0 / 3 there."""
        if not (0.0 < self.sigma0 <= self.sigma1):
            raise ValueError(f"sigma bounds must satisfy 0 < sigma0 <= sigma1, got ({self.sigma0}, {self.sigma1})")
        if not (0.0 < self.nu0 <= self.nu1):
            raise ValueError(f"viscosity bounds must satisfy 0 < nu0 <= nu1, got ({self.nu0}, {self.nu1})")
        limit = (2.0 / 3.0) * self.nu0
        if not (0.0 < self.kappa1 <= limit * (1.0 + 1e-12)):
            raise ValueError(f"kappa1 = {self.kappa1} outside the admissible interval (0, {limit}] = (0, 2/3 nu0]")
        if self.kappa2 <= 0.0:
            raise ValueError(f"kappa2 must be positive, got {self.kappa2}")


@dataclass(eq=False)
class AssembledSystem:
    """Sparse block system over [velocity | vorticity | pressure | multiplier]."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    block_index: tuple[int, int, int, int, int]
    bc_applied: bool = False
    parts: dict | None = field(default=None, repr=False)
    ordering: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.block_index[-1]
        if self.matrix.shape != (n, n) or self.rhs.shape != (n,):
            raise ValueError(f"system of size {self.matrix.shape} does not match the block layout ending at {n}")

    @property
    def n(self) -> int:
        return self.block_index[-1]

    def split(self, x: np.ndarray):
        """Split a solution vector into (u, w, p, m) coefficient blocks."""
        o = self.block_index
        return x[: o[1]], x[o[1] : o[2]], x[o[2] : o[3]], float(x[o[3]])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _keys(rows, cols, shape) -> np.ndarray:
    rows = rows.astype(np.int64, copy=False)
    if len(rows) and (rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]):
        raise ValueError(f"COO indices outside a {shape[0]} x {shape[1]} matrix")
    return rows * shape[1] + cols


class CSRPattern:
    """Canonical CSR pattern of a list of COO (row, col) keys.

    ``slot`` maps each of those keys to its place in the CSR data: the rank
    of its key among the distinct keys, found by a stable sort.  Summed into
    their slots left to right (``np.bincount``, ``np.add.at``), the values
    of an entry depend only on their own order, never on the other entries
    of a row; every key is kept, zero sums included.  ``locate`` finds the
    slots of other keys of the pattern.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.shape = shape
        key = _keys(rows, cols, shape)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self.slot = np.empty(len(key), dtype=np.intp)
        self.slot[order] = np.cumsum(first) - 1
        key = key[first]
        idx = np.int32 if max(len(key), *shape) < 2**31 else np.int64
        self.indices = (key % shape[1]).astype(idx)
        self.indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(np.bincount(key // shape[1], minlength=shape[0]), out=self.indptr[1:])

    def locate(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Slots of other (row, col) keys, found by binary search."""
        keys = _keys(np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices, self.shape)
        query = _keys(rows, cols, self.shape)
        slot = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        if np.any(keys[slot] != query):
            raise ValueError("COO keys outside the sparsity pattern")
        return slot

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix with the entries ``data``, in slot order."""
        matrix = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        matrix.has_canonical_format = True
        return matrix


def triplets_to_csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR of COO triplets, duplicates summed in input order."""
    pattern = CSRPattern(rows, cols, shape)
    return pattern.csr(np.bincount(pattern.slot, weights=vals, minlength=len(pattern.indices)))


def default_quad_degree(velocity_space: FunctionSpace) -> int:
    """2 * velocity degree + 2; the extra 2 absorbs variable coefficients."""
    return 2 * velocity_space.element.degree + 2


def _check_spaces(spaces):
    V, W, Q = spaces
    if not (V.mesh is W.mesh is Q.mesh):
        raise ValueError("velocity, vorticity and pressure spaces live on different meshes")
    if not V.vector or W.vector or Q.vector:
        raise ValueError("expected (vector velocity, scalar vorticity, scalar pressure) spaces")
    return V, W, Q


def _block_keys(rows_map, cols_map):
    """Read-only COO (rows, cols) of a block whose local matrices, over all
    cells, sit at the global ``rows_map`` (nc, na) x ``cols_map`` (nc, nb);
    in cell order, the order in which the chunks produce their values."""
    na, nb = rows_map.shape[1], cols_map.shape[1]
    return _frozen(np.repeat(rows_map, nb, axis=1).ravel()), _frozen(np.tile(cols_map, (1, na)).ravel())


def _velocity_arrays(tab_v, cells, inv):
    """Physical values V, gradients G, curl and div of the velocity basis."""
    dirs = chunk_dirs(tab_v, cells)
    vals = np.einsum("bq,cbi->cbqi", tab_v.shapes, np.broadcast_to(dirs, (len(cells),) + dirs.shape[1:]))
    grads = np.einsum("cbqj,cbi->cbqij", physical_gradients(tab_v, inv), dirs)
    curl = grads[..., 1, 0] - grads[..., 0, 1]
    div = grads[..., 0, 0] + grads[..., 1, 1]
    return vals, grads, curl, div


def gram_matrix(spaces, quad: CellQuadrature) -> sp.csr_matrix:
    """Gram matrix of the combined velocity/vorticity norm.

    For stacked coefficients [u | w], coef' G coef equals
    ||u||^2 + ||curl u||^2 + ||div u||^2 + ||w||^2.
    """
    V, W, _ = spaces
    tab_v = tabulate(V, quad.rule.points)
    wvals = tabulate(W, quad.rule.points).shapes
    vals_u, vals_w = [], []
    for cells, wdet, _, inv in quad.chunks():
        vv, _, curl, div = _velocity_arrays(tab_v, cells, inv)
        local_u = (
            np.einsum("cq,caqi,cbqi->cab", wdet, vv, vv, optimize=True)
            + np.einsum("cq,caq,cbq->cab", wdet, curl, curl, optimize=True)
            + np.einsum("cq,caq,cbq->cab", wdet, div, div, optimize=True)
        )
        vals_u.append(local_u.ravel())
        vals_w.append(np.einsum("cq,aq,bq->cab", wdet, wvals, wvals, optimize=True).ravel())
    # the two blocks share no key, so their order does not change a sum
    uu, ww = (_block_keys(dofs, dofs) for dofs in (V.cell_dofs, W.cell_dofs + V.n_dofs))
    n = V.n_dofs + W.n_dofs
    return triplets_to_csr(*(np.concatenate(t) for t in zip(uu, ww)), np.concatenate(vals_u + vals_w), (n, n))


class SystemAssembler:
    """Chunked cellwise assembler with a cached advection-independent part.

    One instance precomputes geometry, reference tabulations and the
    linear part, binned once into its CSR pattern; Oseen and Newton
    matrices then only add the convection values on their slots.  Instances hold no
    mutable state besides caches and may be shared across sequential
    solves; distinct instances are fully independent.
    """

    def __init__(self, spaces, coeffs: ProblemCoefficients, quad_degree: int | None = None):
        self.V, self.W, self.Q = _check_spaces(spaces)
        if coeffs.validate:  # guards against post-construction mutation
            coeffs.check_bounds()
        self.coeffs = coeffs
        self.mesh = self.V.mesh
        degree = default_quad_degree(self.V) if quad_degree is None else quad_degree
        self.quad = CellQuadrature(self.mesh, degree)
        self.rule = self.quad.rule
        self.tab_v = tabulate(self.V, self.rule.points)
        self.tab_w = tabulate(self.W, self.rule.points)
        self.tab_q = tabulate(self.Q, self.rule.points)
        n_u, n_w, n_p = self.V.n_dofs, self.W.n_dofs, self.Q.n_dofs
        self.block_index = (0, n_u, n_u + n_w, n_u + n_w + n_p, n_u + n_w + n_p + 1)
        self._linear = None
        self._ordering = None

    def _coefficient_samples(self, xq):
        c = self.coeffs
        x, y = xq[..., 0], xq[..., 1]
        nu = np.asarray(c.nu(x, y), dtype=float)
        if c.validate:
            slack = 1e-12 * max(1.0, abs(c.nu1))
            if nu.min() < c.nu0 - slack or nu.max() > c.nu1 + slack:
                raise ValueError(f"viscosity leaves its declared bounds [{c.nu0}, {c.nu1}] "
                                 f"(sampled range [{nu.min()}, {nu.max()}])")
        sig = np.broadcast_to(np.asarray(c.sigma(x, y), dtype=float), nu.shape)
        gnu = None if c.grad_nu is None else np.asarray(c.grad_nu(x, y), dtype=float)
        return nu, sig, gnu

    # ------------------------------------------------------------- assembly

    def _ensure_linear(self):
        if self._linear is not None:
            return self._linear
        k1, k2 = self.coeffs.kappa1, self.coeffs.kappa2
        o = self.block_index
        chunks: dict[str, list] = {}  # values per chunk; a part's block is its name's first two letters
        rhs = np.zeros(o[4])
        pmass = np.zeros(self.Q.n_dofs)

        def add(name, local):
            chunks.setdefault(name, []).append(local.ravel())

        wvals = self.tab_w.shapes  # vorticity/pressure bases are affine-invariant
        pvals = self.tab_q.shapes
        for cells, wdet, xq, inv in self.quad.chunks():
            nu, sig, gnu = self._coefficient_samples(xq)
            fq = np.asarray(self.coeffs.f(xq[..., 0], xq[..., 1]), dtype=float)
            vv, gv, curl, div = _velocity_arrays(self.tab_v, cells, inv)

            add("uu_sigma", np.einsum("cq,caqi,cbqi->cab", wdet * sig, vv, vv, optimize=True))
            if k1 != 0.0:
                add("uu_curl", k1 * np.einsum("cq,caq,cbq->cab", wdet, curl, curl, optimize=True))
            if k2 != 0.0:
                add("uu_div", k2 * np.einsum("cq,caq,cbq->cab", wdet, div, div, optimize=True))
            if gnu is not None:
                eps_gnu = 0.5 * (np.einsum("cbqij,cqj->cbqi", gv, gnu, optimize=True)
                                 + np.einsum("cbqji,cqj->cbqi", gv, gnu, optimize=True))
                add("uu_gradnu", -2.0 * np.einsum("cq,cbqi,caqi->cab", wdet, eps_gnu, vv, optimize=True))
                cross = gnu[:, None, :, 0] * vv[..., 1] - gnu[:, None, :, 1] * vv[..., 0]
                add("uw_gradnu", np.einsum("cq,caq,bq->cab", wdet, cross, wvals, optimize=True))

            coupling = np.einsum("cq,caq,bq->cab", wdet * nu, curl, wvals, optimize=True)
            add("uw_nu", coupling)
            # same floats, transposed placement: bitwise antisymmetric pair
            add("wu_nu", -coupling.transpose(0, 2, 1))
            if k1 != 0.0:
                add("uw_kappa1", -k1 * np.einsum("cq,caq,bq->cab", wdet, curl, wvals, optimize=True))
            add("ww_nu", np.einsum("cq,aq,bq->cab", wdet * nu, wvals, wvals, optimize=True))

            bform = -np.einsum("cq,caq,bq->cab", wdet, div, pvals, optimize=True)
            add("up", bform)
            add("pu", bform.transpose(0, 2, 1))

            np.add.at(rhs, self.V.cell_dofs[cells], np.einsum("cq,caqi,cqi->ca", wdet, vv, fq, optimize=True))
            np.add.at(pmass, self.Q.cell_dofs[cells], np.einsum("cq,bq->cb", wdet, pvals))

        # free the chunks before the pattern's temporaries
        vals = {name: np.concatenate(chunks.pop(name)) for name in list(chunks)}
        dofs = {"u": self.V.cell_dofs, "w": self.W.cell_dofs + o[1], "p": self.Q.cell_dofs + o[2]}
        keys = {b: _block_keys(dofs[b[0]], dofs[b[1]]) for b in ("uu", "uw", "wu", "ww", "up", "pu")}
        p_dofs, m_dofs = o[2] + np.arange(self.Q.n_dofs)[:, None], np.full((self.Q.n_dofs, 1), o[3])
        keys["mp"], keys["pm"] = _block_keys(m_dofs, p_dofs), _block_keys(p_dofs, m_dofs)
        vals["mp"] = vals["pm"] = pmass
        rows, cols = zip(*keys.values())
        pattern = CSRPattern(np.concatenate(rows), np.concatenate(cols), (o[4], o[4]))
        slots = dict(zip(keys, np.split(pattern.slot, np.cumsum([len(r) for r in rows])[:-1])))
        # part by part from zeros: the same left-to-right sums as one bincount of all parts
        self._data = np.zeros(len(pattern.indices))
        for name, v in vals.items():
            np.add.at(self._data, slots[name[:2]], v)
        self._conv_slots = slots["uu"].copy()  # the convection keys are the uu keys
        del pattern.slot, slots
        self._pattern = pattern
        self._linear = ({name: keys[name[:2]] + (v,) for name, v in vals.items()}, rhs)
        return self._linear

    def _convection(self, beta: DiscreteField, newton: bool = False):
        """COO triplets (rows, cols, vals) of ((beta . grad) u, v), on the
        read-only keys of the uu block (same cell layout).  With
        ``newton``, also the values of the block differentiated in its
        advecting argument, ((u . grad) beta, v): (rows, cols, vals, dual)."""
        if beta.space is not self.V and beta.space.n_dofs != self.V.n_dofs:
            raise ValueError("advecting field must live on the velocity space")
        rows, cols, _ = self._ensure_linear()[0]["uu_sigma"]
        vals, dual_vals = [], []
        cd_u = self.V.cell_dofs
        for cells, wdet, _, inv in self.quad.chunks():
            vv, gv, _, _ = _velocity_arrays(self.tab_v, cells, inv)
            coefs = beta.coefficients[cd_u[cells]]
            bv = np.einsum("cb,cbqi->cqi", coefs, vv, optimize=True)
            wbv = wdet[..., None] * bv
            vals.append(np.einsum("cqj,cbqij,caqi->cab", wbv, gv, vv, optimize=True).ravel())
            if newton:
                gb = np.einsum("cb,cbqij->cqij", coefs, gv, optimize=True)
                wgb = wdet[..., None, None] * gb
                dual_vals.append(np.einsum("cqij,cbqj,caqi->cab", wgb, vv, vv, optimize=True).ravel())
        if newton:
            return rows, cols, np.concatenate(vals), np.concatenate(dual_vals)
        return rows, cols, np.concatenate(vals)

    def _elimination_order(self, matrix: sp.csr_matrix) -> np.ndarray:
        """Nested-dissection DOF order, multiplier last (it couples globally)."""
        if self._ordering is None:
            centroids = self.mesh.vertices[self.mesh.cells].mean(axis=1)
            o = self.block_index
            coords = np.empty((o[4], 2))
            for space, lo, hi in ((self.V, 0, o[1]), (self.W, o[1], o[2]), (self.Q, o[2], o[3])):
                coords[lo:hi] = dof_support_centroids(space.n_dofs, space.cell_dofs, centroids)
            coords[o[3]] = centroids.mean(axis=0)
            self._ordering = nested_dissection(matrix, coords, last=np.array([o[3]]))
        return self._ordering

    def oseen(self, beta: DiscreteField | None = None, pressure_target: float = 0.0, keep_parts: bool = False,
              conv_triplets=None) -> AssembledSystem:
        """Assemble the linearised system with frozen advecting field ``beta``.

        ``conv_triplets`` short-circuits the convection assembly with
        precomputed COO data (the solver loop passes those of its own
        convection pass).
        """
        coo, rhs = self._ensure_linear()
        if conv_triplets is None and beta is not None:
            conv_triplets = self._convection(beta)
        matrix = self._matrix(conv_triplets)
        full_rhs = rhs.copy()
        full_rhs[-1] = pressure_target
        parts = None
        if keep_parts:
            parts_coo = coo if conv_triplets is None else dict(coo, uu_conv=conv_triplets)
            parts = {name: triplets_to_csr(r, c, v, matrix.shape) for name, (r, c, v) in parts_coo.items()}
        ordering = self._elimination_order(matrix)
        return AssembledSystem(matrix, full_rhs, self.block_index, parts=parts, ordering=ordering)

    def _matrix(self, conv_triplets) -> sp.csr_matrix:
        """Linear part plus convection triplets (rows, cols, vals), added at
        their slots in triplet order after the linear sums, as one bincount
        of all triplets would.  Other keys must belong to the pattern."""
        own_rows, own_cols, _ = self._ensure_linear()[0]["uu_sigma"]
        data = self._data.copy()
        if conv_triplets is not None:
            rows, cols, vals = conv_triplets
            own = rows is own_rows and cols is own_cols
            np.add.at(data, self._conv_slots if own else self._pattern.locate(rows, cols), vals)
        return self._pattern.csr(data)

    def jacobian(self, conv_triplets) -> sp.csr_matrix:
        """Newton matrix at beta = u_h, on the Oseen pattern.

        ``conv_triplets`` is (rows, cols, direct, dual) from
        ``_convection(u_h, newton=True)``.  Each convection triplet carries
        direct + dual, the convection block plus its derivative in the
        advecting argument, so the matrix has the Oseen matrix's sparsity.
        """
        rows, cols, direct, dual = conv_triplets
        return self._matrix((rows, cols, direct + dual))

    def newton_system(self, state: np.ndarray, pressure_target: float = 0.0):
        """Jacobian and residual of the nonlinear map at ``state``.

        The residual is rhs - [a + N(u_h; u_h, .) + b + b^T + multiplier]
        applied to the state, with velocity Dirichlet rows zeroed (the
        state is expected to satisfy the boundary values).  The Jacobian
        augments the Oseen matrix at beta = u_h with the convection block
        differentiated with respect to the advecting argument.
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self.block_index[4],):
            raise ValueError("state vector does not match the system size")
        conv = self._convection(DiscreteField(self.V, state[: self.block_index[1]]), newton=True)
        system = self.oseen(conv_triplets=conv[:3], pressure_target=pressure_target)
        residual = system.rhs - system.matrix @ state
        residual[self.V.dirichlet_dofs] = 0.0
        jac = AssembledSystem(self.jacobian(conv), system.rhs, self.block_index, ordering=system.ordering)
        return jac, residual

    def gram_x(self) -> sp.csr_matrix:
        """Gram matrix of the combined velocity/vorticity norm (see gram_matrix)."""
        return gram_matrix((self.V, self.W, self.Q), self.quad)


def assemble_oseen(
    spaces,
    coeffs: ProblemCoefficients,
    beta: DiscreteField | None = None,
    pressure_target: float = 0.0,
    quad_degree: int | None = None,
    keep_parts: bool = False,
) -> AssembledSystem:
    """One-shot Oseen assembly; see :class:`SystemAssembler` for solver loops."""
    return SystemAssembler(spaces, coeffs, quad_degree).oseen(
        beta=beta, pressure_target=pressure_target, keep_parts=keep_parts
    )


def assemble_newton(
    spaces,
    coeffs: ProblemCoefficients,
    state: np.ndarray,
    pressure_target: float = 0.0,
    quad_degree: int | None = None,
):
    """Jacobian system and nonlinear residual at a full state vector."""
    return SystemAssembler(spaces, coeffs, quad_degree).newton_system(
        state, pressure_target=pressure_target
    )


def assemble_gram_X(spaces, quad_degree: int | None = None):
    """Gram matrix of the velocity/vorticity product norm (see gram_matrix)."""
    V, W, Q = _check_spaces(spaces)
    degree = default_quad_degree(V) if quad_degree is None else quad_degree
    return gram_matrix((V, W, Q), CellQuadrature(V.mesh, degree))


def apply_dirichlet(system: AssembledSystem, space: FunctionSpace, g) -> AssembledSystem:
    """Impose velocity boundary values by symmetric elimination.

    Constrained rows and columns are replaced by the identity, and the
    right-hand side absorbs the lifting, so symmetric sub-blocks stay
    symmetric.  ``g`` follows :func:`vvpflow.spaces.boundary_values`.
    """
    if system.bc_applied:
        raise RuntimeError("Dirichlet data was already applied to this system")
    dofs = space.dirichlet_dofs
    vals = boundary_values(space, g)
    n = system.n
    lift = np.zeros(n)
    lift[dofs] = vals
    rhs = system.rhs - system.matrix @ lift
    rhs[dofs] = vals
    keep = np.ones(n)
    keep[dofs] = 0.0
    a = system.matrix.tocsr()
    data = a.data * keep[np.repeat(np.arange(n), np.diff(a.indptr))] * keep[a.indices]
    # the sum drops the zeroed entries
    matrix = (sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape) + sp.diags(1.0 - keep)).tocsr()
    return AssembledSystem(matrix, rhs, system.block_index, bc_applied=True, ordering=system.ordering)
