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
:class:`VelocityClasses` tabulates it once per class.  Every form (linear,
convection, Gram) is written once as its coefficient, the coefficient's
axes, the subscripts of its basis operands and the operands, and one
kernel, :meth:`VelocityClasses.fill`, writes its element values in cell
order.  A class of at least nb cells gets a table (the reference-tensor
form of Kirby & Logg) and its cells one GEMM against it: a constant gives
each cell the table, sampled sigma, nu, grad nu or f a (cells, points) @
(points, na nb) product and beta's cell coefficients a (cells, nb) @
(nb, na nb) product with the trilinear tensor.  The cells of smaller
classes, which would not repay a table, are contracted one by one; no
other code makes that choice.

Every term falls on one block (uu, uw, wu, ww, up, pu, mp or pm), whose
COO keys follow from the DOF maps in cell order.  An assembler sorts them
once into one :class:`CSRPattern`, bins the linear part on its slots and
then keeps no keys: convection (Oseen and Newton alike) is passed as values
in uu-key order and added on the uu slots.  Each entry is the
left-to-right sum of its contributions in part and cell order, whatever
else shares its row.  Repeated assemblies are therefore bit-identical, and
blocks built from the same floats in transposed placement are exact
transposes.  Dirichlet elimination masks the data.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .ordering import dof_support_centroids, nested_dissection
from .quadrature import CHUNK, CellQuadrature, groups
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
        """Reject bounds and weights outside 0 < nu0 <= nu1 < inf,
        0 < sigma0 <= sigma1 < inf, kappa1 in (0, 2/3 nu0] and 0 < kappa2 < inf;
        NaN fails every comparison.  The upper end of kappa1 is admissible:
        the ellipticity margin kappa1 - 3 kappa1^2 / (4 nu0) is still nu0 / 3
        there."""
        if not (0.0 < self.nu0 <= self.nu1 < np.inf):
            raise ValueError(f"viscosity bounds must satisfy 0 < nu0 <= nu1 < inf, got {self.nu0, self.nu1}")
        if not (0.0 < self.sigma0 <= self.sigma1 < np.inf):
            raise ValueError(f"sigma bounds must satisfy 0 < sigma0 <= sigma1 < inf, got {self.sigma0, self.sigma1}")
        limit = (2.0 / 3.0) * self.nu0
        if not (0.0 < self.kappa1 <= limit * (1.0 + 1e-12)):
            raise ValueError(f"kappa1 = {self.kappa1} outside the admissible interval (0, {limit}] = (0, 2/3 nu0]")
        if not (0.0 < self.kappa2 < np.inf):
            raise ValueError(f"kappa2 must be positive and finite, got {self.kappa2}")


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


class CSRPattern:
    """Canonical CSR pattern of a list of COO (row, col) keys.

    ``slot`` maps each of those keys to its place in the CSR data: the rank
    of its key among the distinct keys, found by one sort.  Summed into
    their slots left to right (``np.bincount``, ``np.add.at``), the values
    of an entry depend only on their own order, never on the other entries
    of a row; every key is kept, zero sums included.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.shape = shape
        rows = rows.astype(np.int64, copy=False)
        if len(rows) and (rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]):
            raise ValueError(f"COO indices outside a {shape[0]} x {shape[1]} matrix")
        key = rows * shape[1] + cols
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
    """COO (rows, cols) of a block whose local matrices, over all cells, sit
    at the global ``rows_map`` (nc, na) x ``cols_map`` (nc, nb); in cell
    order, the order in which the chunks produce their values."""
    na, nb = rows_map.shape[1], cols_map.shape[1]
    return np.repeat(rows_map, nb, axis=1).ravel(), np.tile(cols_map, (1, na)).ravel()


class VelocityClasses:
    """The velocity basis in physical coordinates, tabulated once per affine
    cell class of a :class:`CellQuadrature` (see its ``classes``), and the
    kernel that turns a form into element values.

    ``label`` is the class of each cell and ``members`` the cells of each
    class, in cell order.  ``tables(ks)`` returns the values (nk, nb, nq, 2),
    gradients (nk, nb, nq, 2, 2) with grad[..., i, j] = d v_i / d x_j,
    curls and divergences (nk, nb, nq) of the classes ``ks``, batched over
    them.  ``blocks`` yields ``(block, tables)``: the shared classes, then
    the cells of the other classes, CHUNK // nb rows at a time, so that the
    pointwise basis products (nq, nb, nb) built per block take about the
    memory of the per-cell gradients of a chunk of CHUNK cells.

    A class table pays only for a class of at least nb cells (``shared``):
    the trilinear convection tensor of a class costs nb^3 nq operations,
    what nb cells contracted one by one cost.  ``fill`` alone acts on that
    choice; a mesh whose cells all differ costs what a per-cell assembly
    does.
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
        """``block`` is (ks, None, wdet) for shared classes ``ks`` and (ks, cells,
        wdet) for cells of small classes, ks their labels; ``wdet`` (nk, nq)
        and the tables have one row per class or cell."""
        w, det = self.quad.rule.weights, self.quad.det
        size = max(1, CHUNK // len(self.tab_v.shapes))
        for ids, by_cell in ((np.flatnonzero(self.shared), False), (np.flatnonzero(~self.shared[self.label]), True)):
            for i0 in range(0, len(ids), size):
                at = ids[i0:i0 + size]
                ks = self.label[at] if by_cell else at
                yield (ks, at if by_cell else None, w[None, :] * det[self.first[ks], None]), self.tables(ks)

    def fill(self, out, block, sub: str, ops, coef=1.0, axes: str = ""):
        """Write into the rows of ``out`` (nc, width) of the cells of ``block``
        the element values of sum_q w det coef times the basis operands
        ``ops``, contracted by ``sub`` (k the class or cell, a the test and
        b the trial function; terms joined by "+" are summed, each taking
        its operands in turn).  ``coef`` is a constant if ``axes`` is empty,
        else it has a row per cell and the axes ``axes``: points ("q",
        "qi", ...) of a sampled coefficient, "c" of a cell vector.  A
        shared class contracts its table once, with the coefficient axes as
        rows, and its cells get ``coef[cells] @ table``; the cells of small
        classes are contracted one by one, samples weighted by w det first.
        """
        ks, cells, wdet = block
        ab = "".join(x for x in "ab" if x in sub)
        lead = {"kq": wdet}  # the operands ahead of the basis, by their subscripts
        if cells is not None and "q" in axes:
            lead = {f"k{axes}": wdet.reshape(wdet.shape + (1,) * (len(axes) - 1)) * coef[cells]}
        elif cells is not None and axes:
            lead[f"k{axes}"] = coef[cells]
        result, ops = f"k{axes}{ab}" if cells is None else f"k{ab}", iter(ops)
        values = functools.reduce(np.add, [
            _contract(f"{','.join(lead)},{term}->{result}", *lead.values(), *(next(ops) for _ in term.split(",")))
            for term in sub.split("+")])
        if cells is not None:
            out[cells] = (values if axes else coef * values).reshape(len(cells), -1)
            return
        for table, k in zip(values.reshape(len(ks), -1, out.shape[1]), ks):
            at = self.members[k]
            out[at] = coef[at].reshape(len(at), -1) @ table if axes else coef * table


def gram_values(classes: VelocityClasses, W: FunctionSpace):
    """Element values of the Gram matrix of the combined velocity/vorticity
    norm, for the velocity space of ``classes`` and the vorticity space
    ``W``: the velocity block (nc, nb^2) and the vorticity block (nc, nw^2),
    each row a cell's matrix in row-major order.

    With d_c a cell's velocity coefficients and G_c its velocity block,
    sum_c d_c' G_c d_c equals ||u||^2 + ||curl u||^2 + ||div u||^2.
    """
    V = classes.tab_v.space
    wvals = tabulate(W, classes.quad.rule.points).shapes
    vals_u, vals_w = (np.empty((len(classes.label), S.cell_dofs.shape[1] ** 2)) for S in (V, W))
    for block, (vv, _, curl, div) in classes.blocks():
        classes.fill(vals_u, block, "kaqi,kbqi+kaq,kbq+kaq,kbq", (vv, vv, curl, curl, div, div))
        classes.fill(vals_w, block, "aq,bq", (wvals, wvals))
    return vals_u, vals_w


# the linear parts in the order of their sums; a part's block is its name's first two letters
_PARTS = ("uu_sigma", "uu_curl", "uu_div", "uu_gradnu", "uw_gradnu", "uw_nu", "wu_nu", "uw_kappa1", "ww_nu", "up", "pu")


class SystemAssembler:
    """Assembler of the saddle system with a cached advection-independent part.

    One instance groups the cells into affine classes, tabulates the
    velocity basis per class and bins the linear part once into its one CSR
    pattern.  It keeps the pattern, the binned data, the rhs and the slots
    of the uu keys, not the keys or the part values;
    ``oseen(keep_parts=True)`` rebuilds those.  Each form is one entry of a
    table handed to :meth:`VelocityClasses.fill`, which alone chooses
    between a class table and cell-by-cell contraction.  Oseen and Newton
    matrices then only add the convection values on the uu slots.
    Instances hold no mutable state besides caches and may be shared across
    sequential solves; distinct instances are fully independent.
    """

    def __init__(self, spaces, coeffs: ProblemCoefficients):
        self.V, self.W, self.Q = _check_spaces(spaces)
        if coeffs.validate:  # guards against post-construction mutation
            coeffs.check_bounds()
        self.coeffs = coeffs
        self.mesh = self.V.mesh
        self.quad = CellQuadrature(self.mesh, default_quad_degree(self.V))
        self.rule = self.quad.rule
        self.tab_v = tabulate(self.V, self.rule.points)
        self.tab_w = tabulate(self.W, self.rule.points)
        self.tab_q = tabulate(self.Q, self.rule.points)
        self.classes = VelocityClasses(self.quad, self.tab_v)
        n_u, n_w, n_p = self.V.n_dofs, self.W.n_dofs, self.Q.n_dofs
        self.block_index = (0, n_u, n_u + n_w, n_u + n_w + n_p, n_u + n_w + n_p + 1)
        self.local = np.hstack([self.V.local_dofs, self.W.local_dofs + n_u])  # (nc, k) cell-local unknowns
        self._rhs = None  # the linear part's rhs, set once it is binned
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
        na, nw, npr = (s.cell_dofs.shape[1] for s in (self.V, self.W, self.Q))
        wvals, pvals = self.tab_w.shapes, self.tab_q.shapes  # vorticity/pressure bases are affine-invariant

        # sampled chunk by chunk: small temporaries sample a third faster
        nu, sig, gnu, fq = (None if s[0] is None else np.concatenate(s) for s in zip(
            *(self._coefficient_samples(xq) for _, _, xq, _ in self.quad.chunks())))
        width = {"uu": na * na, "uw": na * nw, "ww": nw * nw, "up": na * npr, "f": na}
        vals = {}
        for block, (vv, gv, curl, div) in cls.blocks():
            # name: (coefficient, its axes, basis subscripts, operands); k the class or cell, a the test
            # and b the trial function
            forms = {
                "uu_sigma": (sig, "q", "kaqi,kbqi", (vv, vv)),  # (sigma v_b, v_a)
                "uu_curl": (k1, "", "kaq,kbq", (curl, curl)),  # k1 (curl v_b, curl v_a)
                "uu_div": (k2, "", "kaq,kbq", (div, div)),  # k2 (div v_b, div v_a)
                # -2 (eps(v_b) grad nu, v_a): basis -(grad v_b + grad v_b^T)
                "uu_gradnu": (gnu, "qj", "kbqij,kaqi", (-(gv + gv.swapaxes(-1, -2)), vv)),
                # (w_b, grad nu x v_a): basis (v_a2, -v_a1)
                "uw_gradnu": (gnu, "qj", "kaqj,bq", (np.stack([vv[..., 1], -vv[..., 0]], axis=-1), wvals)),
                "uw_nu": (nu, "q", "kaq,bq", (curl, wvals)),  # (nu w_b, curl v_a)
                "uw_kappa1": (-k1, "", "kaq,bq", (curl, wvals)),  # -k1 (w_b, curl v_a)
                "ww_nu": (nu, "q", "aq,bq", (wvals, wvals)),  # (nu w_b, th_a)
                "up": (-1.0, "", "kaq,bq", (div, pvals)),  # -(p_b, div v_a)
                "f": (fq, "qi", "kaqi", (vv,)),  # (f, v_a)
            }
            for name, (coef, axes, sub, ops) in forms.items():
                if coef is not None and (axes or coef):  # no grad nu, or a zero kappa, drops its forms
                    cls.fill(vals.setdefault(name, np.empty((nc, width[name[:2]]))), block, sub, ops, coef, axes)
        vals["pmass"] = np.einsum("cq,bq->cb", self.rule.weights[None, :] * self.quad.det[:, None], pvals)

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

    def _keys(self):
        """COO (rows, cols) of each block, in cell order."""
        o = self.block_index
        dofs = {"u": self.V.cell_dofs, "w": self.W.cell_dofs + o[1], "p": self.Q.cell_dofs + o[2]}
        keys = {b: _block_keys(dofs[b[0]], dofs[b[1]]) for b in ("uu", "uw", "wu", "ww", "up", "pu")}
        p_dofs, m_dofs = o[2] + np.arange(self.Q.n_dofs)[:, None], np.full((self.Q.n_dofs, 1), o[3])
        keys["mp"], keys["pm"] = _block_keys(m_dofs, p_dofs), _block_keys(p_dofs, m_dofs)
        return keys

    def _ensure_linear(self):
        """Bin the linear part once; returns its rhs."""
        if self._rhs is not None:
            return self._rhs
        o = self.block_index
        vals, rhs = self._element_values()  # its samples and tables are freed before the pattern's temporaries
        keys = self._keys()
        rows, cols = zip(*keys.values())
        pattern = CSRPattern(np.concatenate(rows), np.concatenate(cols), (o[4], o[4]))
        slots = dict(zip(keys, np.split(pattern.slot, np.cumsum([len(r) for r in rows])[:-1])))
        del keys, rows, cols, pattern.slot
        # part by part from zeros: the same left-to-right sums as one bincount of all parts
        self._data = np.zeros(len(pattern.indices))
        for name, v in vals.items():
            np.add.at(self._data, slots[name[:2]], v)
        self._conv_slots = slots["uu"].copy()  # convection values come in uu-key order
        self._pattern, self._rhs = pattern, rhs  # the values are dropped once binned
        return rhs

    def _convection(self, beta: DiscreteField, newton: bool = False):
        """Values of ((beta . grad) u, v) in the order of the uu keys, as a
        1-tuple; with ``newton`` also those of the block differentiated in
        its advecting argument, ((u . grad) beta, v): (direct, dual).

        Per class, T[c, a, b] = sum_q w_q det v_c . (grad v_b)^T v_a, and
        the element values are beta_cell @ T (see :meth:`VelocityClasses.fill`);
        the dual swaps the roles of v_c and v_b.
        """
        if beta.space is not self.V and beta.space.n_dofs != self.V.n_dofs:
            raise ValueError("advecting field must live on the velocity space")
        self._ensure_linear()  # binned before the convection values are allocated: a lower peak
        coefs = beta.coefficients[self.V.cell_dofs]
        out = [np.empty((len(coefs), coefs.shape[1] ** 2)) for _ in range(1 + newton)]
        for block, (vv, gv, _, _) in self.classes.blocks():
            # beta's basis function c, then the advected and the test function; the dual swaps c and b
            for vals, sub, ops in zip(out, ("kcqj,kbqij,kaqi", "kcqij,kbqj,kaqi"), ((vv, gv, vv), (gv, vv, vv))):
                self.classes.fill(vals, block, sub, ops, coefs, "c")
        return tuple(vals.ravel() for vals in out)

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
              conv_values=None) -> AssembledSystem:
        """Assemble the linearised system with frozen advecting field ``beta``.

        ``conv_values`` short-circuits the convection assembly with the
        values, in uu-key order, of an earlier :meth:`_convection` call.
        ``keep_parts`` rebuilds each part's keys and values as a CSR matrix.
        """
        rhs = self._ensure_linear()
        if conv_values is None and beta is not None:
            conv_values = self._convection(beta)[0]
        matrix = self._matrix(conv_values)
        full_rhs = rhs.copy()
        full_rhs[-1] = pressure_target
        parts = None
        if keep_parts:
            keys = self._keys()
            coo = {name: keys[name[:2]] + (v,) for name, v in self._element_values()[0].items()}
            if conv_values is not None:
                coo["uu_conv"] = keys["uu"] + (conv_values,)
            parts = {name: triplets_to_csr(*triplets, matrix.shape) for name, triplets in coo.items()}
        ordering = self._elimination_order(matrix)
        return AssembledSystem(matrix, full_rhs, self.block_index, parts=parts, ordering=ordering, local=self.local)

    def _matrix(self, conv) -> sp.csr_matrix:
        """Linear part plus the convection values ``conv`` in uu-key order,
        added at their slots after the linear sums, as one bincount of all
        triplets would."""
        data = self._data.copy()
        if conv is not None:
            np.add.at(data, self._conv_slots, conv)
        return self._pattern.csr(data)

    def jacobian(self, conv) -> sp.csr_matrix:
        """Newton matrix at beta = u_h, on the Oseen pattern.

        ``conv`` is (direct, dual) from ``_convection(u_h, newton=True)``.
        Each uu slot gets direct + dual, the convection block plus its
        derivative in the advecting argument, so the matrix has the Oseen
        matrix's sparsity.
        """
        return self._matrix(conv[0] + conv[1])

    def _step(self, beta: np.ndarray, state: np.ndarray, pressure_target: float, newton: bool):
        """(Oseen system, convection values, residual): the convection at the
        velocity coefficients ``beta`` (with its dual if ``newton``), the Oseen
        system on it and the residual of ``state``, velocity Dirichlet rows zeroed."""
        conv = self._convection(DiscreteField(self.V, beta), newton=newton)
        system = self.oseen(conv_values=conv[0], pressure_target=pressure_target)
        residual = system.rhs - system.matrix @ state
        residual[self.V.dirichlet_dofs] = 0.0
        return system, conv, residual

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
        system, conv, residual = self._step(state[: self.block_index[1]], state, pressure_target, newton=True)
        return replace(system, matrix=self.jacobian(conv)), residual


def assemble_oseen(
    spaces,
    coeffs: ProblemCoefficients,
    beta: DiscreteField | None = None,
    pressure_target: float = 0.0,
    keep_parts: bool = False,
) -> AssembledSystem:
    """One-shot Oseen assembly; see :class:`SystemAssembler` for solver loops."""
    return SystemAssembler(spaces, coeffs).oseen(
        beta=beta, pressure_target=pressure_target, keep_parts=keep_parts
    )


def assemble_newton(
    spaces,
    coeffs: ProblemCoefficients,
    state: np.ndarray,
    pressure_target: float = 0.0,
):
    """Jacobian system and nonlinear residual at a full state vector."""
    return SystemAssembler(spaces, coeffs).newton_system(
        state, pressure_target=pressure_target
    )


def assemble_gram_X(spaces):
    """Gram matrix of the velocity/vorticity product norm, :func:`gram_values`
    binned: for stacked coefficients [u | w], coef' G coef equals
    ||u||^2 + ||curl u||^2 + ||div u||^2 + ||w||^2."""
    V, W, _ = _check_spaces(spaces)
    quad = CellQuadrature(V.mesh, default_quad_degree(V))
    vals_u, vals_w = gram_values(VelocityClasses(quad, tabulate(V, quad.rule.points)), W)
    # the two blocks share no key, so their order does not change a sum
    uu, ww = (_block_keys(dofs, dofs) for dofs in (V.cell_dofs, W.cell_dofs + V.n_dofs))
    n = V.n_dofs + W.n_dofs
    return triplets_to_csr(*map(np.concatenate, zip(uu, ww)), np.concatenate([vals_u, vals_w], axis=None), (n, n))


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
