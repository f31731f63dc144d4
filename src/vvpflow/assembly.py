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

The mesh is affine, so a cell's physical velocity basis depends on the
cell only through its affine class (:meth:`CellQuadrature.classes`), and
:class:`VelocityClasses` tabulates it once per class.  Every element
matrix is then a GEMM against a class table (the reference-tensor form of
Kirby & Logg): a constant-coefficient term is one element matrix per
class; a sampled coefficient (sigma, nu, grad nu, f), sampled at every
point of every cell, is one (cells, points) @ (points, na nb) product per
class of the weighted samples and the pointwise basis products; the
convection is one (cells, nb) @ (nb, na nb) product per class of the cell
coefficients of beta and the class's trilinear tensor, weights and cell
area included.  A class of fewer than nb cells would not repay its tables,
so its cells are contracted one by one instead.  The results fill the
element values in cell order.

Every term falls on one block (uu, uw, wu, ww, up, pu, mp or pm).  One key
array per block, built once from the DOF maps in cell order, is shared by
all its terms.  :class:`CSRPattern` maps the keys to CSR slots, and each
entry is the left-to-right sum of its contributions in part and cell
order, whatever else shares its row.  Repeated assemblies are therefore
bit-identical, and blocks built from the same floats in transposed
placement are exact transposes.  Convection (Oseen and Newton alike) adds
its values on the slots of the uu keys; Dirichlet elimination masks the data.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ordering import dof_support_centroids, nested_dissection
from .quadrature import CHUNK, CellQuadrature, groups, physical_points
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
    """Sparse block system over [velocity | vorticity | pressure | multiplier];
    ``local`` (nc, k) holds the unknowns that couple only inside their cell,
    which ``ordering`` puts first."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    block_index: tuple[int, int, int, int, int]
    bc_applied: bool = False
    parts: dict | None = field(default=None, repr=False)
    ordering: np.ndarray | None = field(default=None, repr=False)
    local: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.int64), repr=False)

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
    of its key among the distinct keys, found by one sort.  Summed into
    their slots left to right (``np.bincount``, ``np.add.at``), the values
    of an entry depend only on their own order, never on the other entries
    of a row; every key is kept, zero sums included.  ``locate`` finds the
    slots of other keys of the pattern.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.shape = shape
        key = _keys(rows, cols, shape)
        order = np.argsort(key)  # equal keys get one rank in any order
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


@functools.lru_cache(maxsize=1024)
def _einsum_path(subscripts: str, *shapes) -> tuple:
    return tuple(np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes), optimize=True)[0])


def _contract(subscripts: str, *operands) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=True)``, with its
    contraction path searched once per subscripts and operand shapes
    instead of on every call; the same path gives the same floats."""
    return np.einsum(subscripts, *operands, optimize=_einsum_path(subscripts, *(op.shape for op in operands)))


def _block_keys(rows_map, cols_map):
    """Read-only COO (rows, cols) of a block whose local matrices, over all
    cells, sit at the global ``rows_map`` (nc, na) x ``cols_map`` (nc, nb);
    in cell order, the order in which the chunks produce their values."""
    na, nb = rows_map.shape[1], cols_map.shape[1]
    return _frozen(np.repeat(rows_map, nb, axis=1).ravel()), _frozen(np.tile(cols_map, (1, na)).ravel())


class VelocityClasses:
    """The velocity basis in physical coordinates, tabulated once per affine
    cell class of a :class:`CellQuadrature` (see its ``classes``).

    ``label`` is the class of each cell and ``members`` the cells of each
    class, in cell order.  ``tables(ks)`` returns the values (nk, nb, nq, 2),
    gradients (nk, nb, nq, 2, 2) with grad[..., i, j] = d v_i / d x_j,
    curls and divergences (nk, nb, nq) of the classes ``ks``, batched over
    them.  ``blocks`` yields ``(ks, wdet, tables(ks))`` for CHUNK // nb
    classes at a time, so that the pointwise basis products (nq, nb, nb)
    built per block take about the memory of the per-cell gradients of a
    chunk of CHUNK cells; ``wdet`` (nk, nq) are the weights times the cell
    area of each class.

    A class table pays only for a class of at least nb cells: the
    trilinear convection tensor of a class costs nb^3 nq operations, what
    nb cells contracted one by one cost.  ``split`` tells such shared
    classes from the cells of smaller ones, which are assembled cell by
    cell from their class's basis; so a mesh whose cells all differ costs
    what a per-cell assembly does.
    """

    def __init__(self, quad: CellQuadrature, tab_v):
        self.quad, self.tab_v = quad, tab_v
        self.first, self.label = quad.classes(tab_v.dirs)
        self.members = groups(self.label)[1]
        self.shared = np.bincount(self.label) >= len(tab_v.shapes)

    def tables(self, ks):
        cells = self.first[ks]
        dirs = np.broadcast_to(chunk_dirs(self.tab_v, cells), (len(cells),) + self.tab_v.dirs.shape[1:])
        vals = np.einsum("bq,cbi->cbqi", self.tab_v.shapes, dirs)
        grads = np.einsum("cbqj,cbi->cbqij", physical_gradients(self.tab_v, self.quad.inv[cells]), dirs)
        curl = grads[..., 1, 0] - grads[..., 0, 1]
        div = grads[..., 0, 0] + grads[..., 1, 1]
        return vals, grads, curl, div

    def blocks(self):
        w, det = self.quad.rule.weights, self.quad.det
        size = max(1, CHUNK // len(self.tab_v.shapes))
        for k0 in range(0, len(self.first), size):
            ks = np.arange(k0, min(k0 + size, len(self.first)))
            yield ks, w[None, :] * det[self.first[ks], None], self.tables(ks)

    def split(self, ks):
        """The positions in ``ks`` of its shared classes, and the cells of its
        other classes with the position of each cell's class."""
        few = np.flatnonzero(~self.shared[ks])
        cells = [self.members[k] for k in ks[few]]
        return np.flatnonzero(self.shared[ks]), np.concatenate([np.empty(0, np.intp)] + cells), np.repeat(
            few, [len(c) for c in cells]).astype(np.intp)

    def per_cell(self, local: np.ndarray) -> np.ndarray:
        """The element matrices of all cells, one row per cell, from those
        of the classes (nk, ...): a cell has its class's."""
        return local[self.label].reshape(len(self.label), -1)


def gram_matrix(classes: VelocityClasses, W: FunctionSpace) -> sp.csr_matrix:
    """Gram matrix of the combined velocity/vorticity norm, for the velocity
    space of ``classes`` and the vorticity space ``W``.

    For stacked coefficients [u | w], coef' G coef equals
    ||u||^2 + ||curl u||^2 + ||div u||^2 + ||w||^2.
    """
    V = classes.tab_v.space
    wvals = tabulate(W, classes.quad.rule.points).shapes
    local_u, local_w = [], []
    for _, wdet, (vv, _, curl, div) in classes.blocks():
        local_u.append(
            _contract("cq,caqi,cbqi->cab", wdet, vv, vv)
            + _contract("cq,caq,cbq->cab", wdet, curl, curl)
            + _contract("cq,caq,cbq->cab", wdet, div, div)
        )
        local_w.append(_contract("cq,aq,bq->cab", wdet, wvals, wvals))
    vals_u, vals_w = (classes.per_cell(np.concatenate(local)).ravel() for local in (local_u, local_w))
    # the two blocks share no key, so their order does not change a sum
    uu, ww = (_block_keys(dofs, dofs) for dofs in (V.cell_dofs, W.cell_dofs + V.n_dofs))
    n = V.n_dofs + W.n_dofs
    return triplets_to_csr(*(np.concatenate(t) for t in zip(uu, ww)), np.concatenate([vals_u, vals_w]), (n, n))


# The sampled-coefficient forms: the point axes of their samples and the
# subscripts of their basis operands (k the class or cell, a the test and
# b the trial function).  Weighted by w (k, q), a form keeps its point axes
# and gives the class tables, rows (points) by columns (a, b); weighted by
# w times the samples of single cells, it gives their element matrices.
_SAMPLED = {
    "uu_sigma": ("q", "kaqi,kbqi"),  # (sigma v_b, v_a)
    "uw_nu": ("q", "kaq,bq"),  # (nu w_b, curl v_a)
    "ww_nu": ("q", "aq,bq"),  # (nu w_b, th_a)
    "uu_gradnu": ("qj", "kbqij,kaqi"),  # -2 (eps(v_b) grad nu, v_a): basis -(grad v_b + grad v_b^T)
    "uw_gradnu": ("qj", "kaqj,bq"),  # (w_b, grad nu x v_a): basis (v_a2, -v_a1)
    "f": ("qi", "kaqi"),  # (f, v_a)
}

# the linear parts in the order of their sums; a part's block is its name's first two letters
_PARTS = ("uu_sigma", "uu_curl", "uu_div", "uu_gradnu", "uw_gradnu", "uw_nu", "wu_nu", "uw_kappa1", "ww_nu", "up", "pu")


class SystemAssembler:
    """Assembler of the saddle system with a cached advection-independent part.

    One instance groups the cells into affine classes, tabulates the
    velocity basis per class and bins the linear part once into its CSR
    pattern.  It keeps the block keys, the pattern and the binned data, not
    the part values; ``oseen(keep_parts=True)`` recomputes those.  Every
    element matrix comes from a class table: a constant-coefficient term is
    one element matrix per class, a sampled coefficient (sigma, nu, grad
    nu, f) one (cells, points) GEMM per class and the convection one
    (cells, basis) GEMM per class; the cells of classes too small to repay
    a table are contracted one by one.  Oseen and Newton matrices then only
    add the convection values on their slots.  Instances hold no mutable
    state besides caches and may be shared across sequential solves;
    distinct instances are fully independent.
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
        self.classes = VelocityClasses(self.quad, self.tab_v)
        n_u, n_w, n_p = self.V.n_dofs, self.W.n_dofs, self.Q.n_dofs
        self.block_index = (0, n_u, n_u + n_w, n_u + n_w + n_p, n_u + n_w + n_p + 1)
        self.local = np.hstack([self.V.local_dofs, self.W.local_dofs + n_u])  # (nc, k) cell-local unknowns
        self._linear = None
        self._ordering = None
        self.ordering_time = 0.0  # seconds the last _elimination_order call spent (0 once cached)

    def _coefficient_samples(self, xq):
        c = self.coeffs
        x, y = xq[..., 0], xq[..., 1]
        nu = np.asarray(c.nu(x, y), dtype=float)
        sig = np.broadcast_to(np.asarray(c.sigma(x, y), dtype=float), nu.shape)
        for name, s, lo, hi in (("viscosity", nu, c.nu0, c.nu1), ("sigma", sig, c.sigma0, c.sigma1)):
            slack = 1e-12 * max(1.0, abs(hi))
            if c.validate and (s.min() < lo - slack or s.max() > hi + slack):
                raise ValueError(f"{name} leaves its declared bounds [{lo}, {hi}] (sampled range [{s.min()}, {s.max()}])")
        gnu = None if c.grad_nu is None else np.asarray(c.grad_nu(x, y), dtype=float)
        return nu, sig, gnu, np.asarray(c.f(x, y), dtype=float)

    # ------------------------------------------------------------- assembly

    def _element_values(self):
        """The linear part values in sum order, each flat in the order of its
        block's keys, and the rhs.  Transposed parts reuse their originals'
        floats; "mp" and "pm" both hold the pressure integral."""
        k1, k2 = self.coeffs.kappa1, self.coeffs.kappa2
        cls, nc = self.classes, self.mesh.n_cells
        na, nw = self.V.cell_dofs.shape[1], self.W.cell_dofs.shape[1]
        wvals = self.tab_w.shapes  # vorticity/pressure bases are affine-invariant
        pvals = self.tab_q.shapes

        # all points mapped at once, sampled CHUNK cells at a time: small temporaries sample a third faster
        xq = physical_points(self.rule, self.quad.jac, self.mesh.vertices[self.mesh.cells[:, 0]])
        nu, sig, gnu, fq = (None if s[0] is None else np.concatenate(s) for s in zip(
            *(self._coefficient_samples(xq[c0:c0 + CHUNK]) for c0 in range(0, nc, CHUNK))))
        samples = {"uu_sigma": sig, "uw_nu": nu, "ww_nu": nu, "uu_gradnu": gnu, "uw_gradnu": gnu, "f": fq}
        if gnu is None:
            del samples["uu_gradnu"], samples["uw_gradnu"]
        width = {"uu_sigma": na * na, "uw_nu": na * nw, "ww_nu": nw * nw, "uu_gradnu": na * na,
                 "uw_gradnu": na * nw, "f": na}
        vals = {name: np.empty((nc, width[name])) for name in samples}
        local: dict[str, list] = {}
        for ks, wdet, (vv, gv, curl, div) in cls.blocks():
            # constant coefficients: one element matrix per class
            terms = {"pmass": np.einsum("cq,bq->cb", wdet, pvals),
                     "up": -_contract("cq,caq,bq->cab", wdet, div, pvals)}
            if k1 != 0.0:
                terms["uu_curl"] = k1 * _contract("cq,caq,cbq->cab", wdet, curl, curl)
                terms["uw_kappa1"] = -k1 * _contract("cq,caq,bq->cab", wdet, curl, wvals)
            if k2 != 0.0:
                terms["uu_div"] = k2 * _contract("cq,caq,cbq->cab", wdet, div, div)
            for name, m in terms.items():
                local.setdefault(name, []).append(m)

            # sampled coefficients: a shared class gives its cells one (cells, points) @ (points, a b)
            # GEMM against its table; the cells of the other classes are contracted one by one
            shared, cells, pos = cls.split(ks)
            basis = {"uu_sigma": (vv, vv), "uw_nu": (curl, wvals), "ww_nu": (wvals, wvals),
                     "uu_gradnu": (-(gv + gv.swapaxes(-1, -2)), vv),
                     "uw_gradnu": (np.stack([vv[..., 1], -vv[..., 0]], axis=-1), wvals), "f": (vv,)}
            for name, sample in samples.items():
                points, sub = _SAMPLED[name]
                ab = "".join(x for x in "ab" if x in sub)
                ops = list(zip(basis[name], sub.split(",")))  # operands with a leading k index classes
                if len(shared):
                    ops_k = [op[shared] if s[0] == "k" else op for op, s in ops]
                    tables = _contract(f"kq,{sub}->k{points}{ab}", wdet[shared], *ops_k)
                    for table, k in zip(tables.reshape(len(shared), -1, width[name]), ks[shared]):
                        at = cls.members[k]
                        vals[name][at] = sample[at].reshape(len(at), -1) @ table
                if len(cells):
                    ops_c = [op[pos] if s[0] == "k" else op for op, s in ops]
                    weighted = wdet[pos].reshape(wdet[pos].shape + (1,) * (len(points) - 1)) * sample[cells]
                    vals[name][cells] = _contract(f"k{points},{sub}->k{ab}", weighted, *ops_c).reshape(
                        len(cells), -1)
        vals.update((name, cls.per_cell(np.concatenate(ms))) for name, ms in local.items())

        # same floats, transposed placement: bitwise (anti)symmetric pairs
        vals["wu_nu"] = -vals["uw_nu"].reshape(nc, na, nw).transpose(0, 2, 1)
        vals["pu"] = vals["up"].reshape(nc, na, -1).transpose(0, 2, 1)
        rhs = np.zeros(self.block_index[4])
        np.add.at(rhs, self.V.cell_dofs, vals.pop("f"))
        pmass = np.zeros(self.Q.n_dofs)
        np.add.at(pmass, self.Q.cell_dofs, vals.pop("pmass"))
        parts = {name: vals.pop(name).ravel() for name in _PARTS if name in vals}
        parts["mp"] = parts["pm"] = pmass
        return parts, rhs

    def _ensure_linear(self):
        if self._linear is not None:
            return self._linear
        o = self.block_index
        vals, rhs = self._element_values()  # its samples and tables are freed before the pattern's temporaries
        dofs = {"u": self.V.cell_dofs, "w": self.W.cell_dofs + o[1], "p": self.Q.cell_dofs + o[2]}
        keys = {b: _block_keys(dofs[b[0]], dofs[b[1]]) for b in ("uu", "uw", "wu", "ww", "up", "pu")}
        p_dofs, m_dofs = o[2] + np.arange(self.Q.n_dofs)[:, None], np.full((self.Q.n_dofs, 1), o[3])
        keys["mp"], keys["pm"] = _block_keys(m_dofs, p_dofs), _block_keys(p_dofs, m_dofs)
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
        self._linear = ({name: keys[name[:2]] for name in vals}, rhs)  # the values are dropped once binned
        return self._linear

    def _convection(self, beta: DiscreteField, newton: bool = False):
        """COO triplets (rows, cols, vals) of ((beta . grad) u, v), on the
        read-only keys of the uu block (same cell layout).  With
        ``newton``, also the values of the block differentiated in its
        advecting argument, ((u . grad) beta, v): (rows, cols, vals, dual).

        Per shared class, T[c, a, b] = sum_q w_q det v_c . (grad v_b)^T v_a,
        and the element values are beta_cell @ T; the dual swaps the roles
        of v_c and v_b.  The cells of other classes contract the same sum
        one by one.
        """
        if beta.space is not self.V and beta.space.n_dofs != self.V.n_dofs:
            raise ValueError("advecting field must live on the velocity space")
        rows, cols = self._ensure_linear()[0]["uu_sigma"]
        cls = self.classes
        nb = self.V.cell_dofs.shape[1]
        coefs = beta.coefficients[self.V.cell_dofs]
        out = [np.empty((len(coefs), nb * nb)) for _ in range(1 + newton)]
        for ks, wdet, (vv, gv, _, _) in cls.blocks():
            # beta's basis function c, then the advected and the test function; the dual swaps c and b
            forms = [("kcqj,kbqij,kaqi", (vv, gv, vv)), ("kcqij,kbqj,kaqi", (gv, vv, vv))]
            shared, cells, pos = cls.split(ks)
            for vals, (sub, ops) in zip(out, forms):
                if len(shared):
                    tensors = _contract(f"kq,{sub}->kcab", wdet[shared], *(op[shared] for op in ops))
                    for tensor, k in zip(tensors, ks[shared]):
                        at = cls.members[k]
                        vals[at] = coefs[at] @ tensor.reshape(nb, -1)
                if len(cells):
                    vals[cells] = _contract(f"kq,kc,{sub}->kab", wdet[pos], coefs[cells],
                                            *(op[pos] for op in ops)).reshape(len(cells), -1)
        return (rows, cols, *(vals.ravel() for vals in out))

    def _elimination_order(self, matrix: sp.csr_matrix) -> np.ndarray:
        """The cell-local unknowns cell by cell, then the nested-dissection
        order of the others, multiplier last (it couples globally)."""
        self.ordering_time, t0 = 0.0, time.perf_counter()
        if self._ordering is None:
            centroids = self.mesh.vertices[self.mesh.cells].mean(axis=1)
            o = self.block_index
            coords = np.empty((o[4], 2))
            for space, lo, hi in ((self.V, 0, o[1]), (self.W, o[1], o[2]), (self.Q, o[2], o[3])):
                coords[lo:hi] = dof_support_centroids(space.n_dofs, space.cell_dofs, centroids)
            coords[o[3]] = centroids.mean(axis=0)
            self._ordering = nested_dissection(matrix, coords, last=np.array([o[3]]), first=self.local)
            self.ordering_time = time.perf_counter() - t0
        return self._ordering

    def oseen(self, beta: DiscreteField | None = None, pressure_target: float = 0.0, keep_parts: bool = False,
              conv_triplets=None) -> AssembledSystem:
        """Assemble the linearised system with frozen advecting field ``beta``.

        ``conv_triplets`` short-circuits the convection assembly with
        precomputed COO data (the solver loop passes those of its own
        convection pass).
        """
        keys, rhs = self._ensure_linear()
        if conv_triplets is None and beta is not None:
            conv_triplets = self._convection(beta)
        matrix = self._matrix(conv_triplets)
        full_rhs = rhs.copy()
        full_rhs[-1] = pressure_target
        parts = None
        if keep_parts:  # the linear part values are recomputed, not kept
            coo = {name: keys[name] + (v,) for name, v in self._element_values()[0].items()}
            if conv_triplets is not None:
                coo["uu_conv"] = conv_triplets
            parts = {name: triplets_to_csr(*triplets, matrix.shape) for name, triplets in coo.items()}
        ordering = self._elimination_order(matrix)
        return AssembledSystem(matrix, full_rhs, self.block_index, parts=parts, ordering=ordering, local=self.local)

    def _matrix(self, conv_triplets) -> sp.csr_matrix:
        """Linear part plus convection triplets (rows, cols, vals), added at
        their slots in triplet order after the linear sums, as one bincount
        of all triplets would.  Other keys must belong to the pattern."""
        own_rows, own_cols = self._ensure_linear()[0]["uu_sigma"]
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
        jac = AssembledSystem(self.jacobian(conv), system.rhs, self.block_index, ordering=system.ordering,
                              local=self.local)
        return jac, residual

    def gram_x(self) -> sp.csr_matrix:
        """Gram matrix of the combined velocity/vorticity norm (see gram_matrix)."""
        return gram_matrix(self.classes, self.W)


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
    V, W, _ = _check_spaces(spaces)
    quad = CellQuadrature(V.mesh, default_quad_degree(V) if quad_degree is None else quad_degree)
    return gram_matrix(VelocityClasses(quad, tabulate(V, quad.rule.points)), W)


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
    return AssembledSystem(matrix, rhs, system.block_index, bc_applied=True, ordering=system.ordering,
                           local=system.local)
