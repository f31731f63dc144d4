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
transposes.  When it is built, the assembler also orders the unknowns on
its pattern and derives a :class:`CondensationPlan` from the slots of
the blocks that touch the cell-local unknowns: the second pattern, the
Schur complement's, the slot maps that condense every matrix it assembles
without a sparse product, sum or slice, and the Dirichlet slots that
elimination writes, the pattern's zeros kept.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .ordering import dof_support_centroids, nested_dissection
from .quadrature import CHUNK, CellQuadrature, _contract, _einsum_path, groups  # noqa: F401 (re-exported)
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

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Sparse block system over [velocity | vorticity | pressure | multiplier]: ``data``, its
    entries in slot order on the ``pattern`` of ``plan``, a required :class:`CondensationPlan`
    of its cell-local unknowns.  Frozen; when made, it checks the plan and the lengths of ``data`` and ``rhs``."""

    data: np.ndarray
    rhs: np.ndarray
    block_index: tuple[int, int, int, int, int]
    bc_applied: bool = False
    plan: CondensationPlan = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.plan, CondensationPlan):
            raise ValueError("the system has no condensation plan: assemble it with a SystemAssembler")
        if np.shape(self.data) != self.plan.pattern.indices.shape or np.shape(self.rhs) != (self.n,):
            raise ValueError(f"entries {np.shape(self.data)} and rhs {np.shape(self.rhs)} do not fit the plan of {self.n} rows")

    @property
    def matrix(self) -> sp.csr_matrix:
        """The CSR matrix of ``data``, sharing the plan's read-only index arrays."""
        return self.plan.pattern.csr(self.data)

    @property
    def n(self) -> int:
        return self.block_index[-1]

    @property
    def ordering(self) -> np.ndarray:
        """The elimination order: the cell-local unknowns first, cell by cell."""
        return self.plan.order

    @property
    def local(self) -> np.ndarray:
        """(nc, k) unknowns that couple only inside their cell."""
        return self.plan.local


class CSRPattern:
    """Canonical CSR pattern of COO (row, col) keys, given as sequences of
    per-block ``rows`` and ``cols`` arrays.

    ``slot`` maps each key, in block order, to its place in the CSR data: the
    rank of its key among the distinct keys, found by one sort.  Summed into
    their slots left to right (``np.bincount``, ``np.add.at``), the values
    of an entry depend only on their own order, never on the other entries
    of a row; every key is kept, zero sums included.  The matrices of
    :meth:`csr` share the pattern's read-only ``indices`` and ``indptr``.
    """

    def __init__(self, rows, cols, shape: tuple[int, int]):
        self.shape = shape
        key = np.empty(sum(len(r) for r in rows), dtype=np.int64)  # the one copy of the keys
        idx = np.int32 if max(len(key), *shape) < 2**31 else np.int64
        for r, c, end in zip(rows, cols, np.cumsum([len(r) for r in rows])):
            if len(r) and (r.min() < 0 or r.max() >= shape[0] or c.min() < 0 or c.max() >= shape[1]):
                raise ValueError(f"COO indices outside a {shape[0]} x {shape[1]} matrix")
            np.multiply(r, shape[1], out=key[end - len(r):end], dtype=np.int64)
            key[end - len(r):end] += c
        place = max(len(key) - 1, 1).bit_length()
        if (int(shape[0]) * int(shape[1]) - 1).bit_length() + place > 63:  # equal keys get one rank in any order
            order = np.argsort(key)
            key = key[order]
        else:  # key << place | place, sorted in place: no gathered copy
            np.bitwise_or(np.left_shift(key, place, out=key), np.arange(len(key)), out=key).sort()
            order = (key & ((1 << place) - 1)).astype(idx)
            key >>= place
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        self.slot = np.empty(len(order), dtype=idx)
        self.slot[order] = np.cumsum(first, dtype=idx)
        self.slot -= 1
        self.indices = (key % shape[1]).astype(idx)
        self.indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(np.bincount(key // shape[1], minlength=shape[0]), out=self.indptr[1:])
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix with the entries ``data``, in slot order."""
        matrix = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        matrix.has_canonical_format = True
        return matrix


def triplets_to_csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR of COO triplets, duplicates summed in input order."""
    pattern = CSRPattern([rows], [cols], shape)
    return pattern.csr(np.bincount(pattern.slot, weights=vals, minlength=len(pattern.indices)))


class CondensationPlan:
    """Static condensation of the cell-local unknowns on the slots of
    patterns the mesh fixes.

    ``order`` puts ``local`` (nc, k), the unknowns that couple only inside
    their cell, first, cell by cell; the others, ``rest``, follow in its
    order.  Their Schur complement S = A_GG - A_GL A_LL^-1 A_LG is kept as
    CSC in the order of ``rest`` (``indices``, ``indptr``) on a structural
    pattern: A_GG's keys without the off-diagonals of the ``constrained``
    rows and columns, every diagonal, and per cell the pairs of G unknowns
    that share a key with its local unknowns, pairs that no block stores
    included (MINI's pressure and vorticity pairs).
    It is derived once, by integer ids of the full pattern's slots carried
    through a row and column selection and a CSC conversion.

    ``slots`` (nc, m, m) and ``dofs`` (nc, m) are each cell's closure, g G
    DOFs first and k local ones last.  ``gather`` (S's entries, then a sink),
    ``ll``, ``gl`` and ``lg`` (A_LL (nc, k, k), A_GL (nc, g, k) and A_LG
    (nc, k, g), sliced from ``slots``) are (slots, absent) pairs that read a
    matrix's data; the flat places in ``absent`` store no key (-1 in
    ``slots``) and read zero.  ``pairs`` (nc, g, g) are the S slots of each
    cell's correction in cell order, the sink for a pair off S's pattern (a
    constrained row's or column's), ``lift`` the diagonal slots that no key
    stores and no correction writes (TH's and BR's pressure, the
    multiplier), and ``dofs`` (nc, g) places A_GL's rows and A_LG's columns
    in ``rest``.  A matrix is on the plan if it has the full ``pattern`` (as
    every :class:`AssembledSystem` does) with its ``constrained`` rows and
    columns eliminated, as :func:`apply_dirichlet` leaves them: ``dropped``
    (the off-diagonals S leaves out) zero and ``pinned`` (the diagonals, one
    per row) 1; any other complement the refinement against the full matrix
    rejects.
    """

    def __init__(self, pattern: CSRPattern, order: np.ndarray, local: np.ndarray, slots, dofs, constrained):
        g = dofs.shape[1] - local.shape[1]  # a cell's G DOFs come first
        ll, gl, lg, pairs = slots[:, g:, g:], slots[:, :g, g:], slots[:, g:, :g], slots[:, :g, :g]
        n, ptr, idx = pattern.shape[0], pattern.indptr, pattern.indices
        self.pattern, self.order, self.local, self.rest = pattern, order, local, order[local.size:]
        ng, fixed = len(self.rest), np.zeros(n, dtype=bool)
        fixed[constrained] = True
        pos = np.empty(n, dtype=idx.dtype)
        pos[self.rest] = np.arange(ng)
        on = np.flatnonzero(np.repeat(fixed, np.diff(ptr)) | fixed[idx])  # in a constrained row or column
        diagonal = idx[on] == np.searchsorted(ptr, on, side="right") - 1
        self.constrained, self.dropped, self.pinned = constrained, on[~diagonal], on[diagonal]
        if len(self.pinned) != len(constrained):
            raise ValueError("each constrained row must store one diagonal entry")
        # A_GG's ids (a slot + 1), 0 at the dropped slots
        ids = sp.csr_matrix((np.arange(1, len(idx) + 1, dtype=idx.dtype), idx, ptr), shape=pattern.shape)
        ids.data[self.dropped] = 0
        ids = ids[self.rest]
        ids = ids[:, self.rest]
        ids.eliminate_zeros()
        # fresh entries, ids past the pattern's: the free pairs of a cell that no block stores and the
        # diagonals no key stores (pressure, multiplier)
        self.dofs, fixed = pos[dofs[:, :g]], fixed[self.rest]
        ii, jj = np.nonzero(pairs[0] < 0)
        a, b = self.dofs[:, ii], self.dofs[:, jj]
        free = ~(fixed[a] | fixed[b])
        keys = a[free].astype(np.int64) * ng + b[free]
        del a, b
        fresh, inverse = np.unique(np.concatenate([keys, np.flatnonzero(ids.diagonal() == 0) * (ng + 1)]),
                                   return_inverse=True)
        fresh_slots = np.arange(len(idx), len(idx) + len(fresh), dtype=idx.dtype)  # stand-ins past the pattern
        fresh_pairs = np.full(free.shape, -1, dtype=idx.dtype)
        fresh_pairs[free] = fresh_slots[inverse[: len(keys)]]
        del keys, inverse
        ids = ids + sp.csr_matrix((fresh_slots + 1, np.divmod(fresh, ng)), shape=(ng, ng))
        ids = ids.tocsc()
        self.indices, self.indptr, ns = ids.indices, ids.indptr, len(ids.data)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        gather = np.full(ns + 1, len(idx), dtype=idx.dtype)  # the slots of S's entries, then of the sink
        np.subtract(ids.data, 1, out=gather[:ns])
        del ids
        diagonal = np.flatnonzero(self.indices == np.repeat(np.arange(ng, dtype=idx.dtype), np.diff(self.indptr)))
        to_s = np.full(len(idx) + len(fresh) + 1, ns, dtype=idx.dtype)  # a slot's S slot; the last, -1's, the sink
        to_s[gather[:ns]] = np.arange(ns, dtype=idx.dtype)
        self.pairs = to_s[pairs]
        self.pairs[:, ii, jj] = to_s[fresh_pairs]
        del to_s
        filled = gather < len(idx)  # the S slots that a key stores or a cell's correction writes
        filled[self.pairs] = True
        self.lift = diagonal[~filled[diagonal]]
        absent = np.flatnonzero(gather >= len(idx))  # the fresh entries and the sink read zero
        gather[absent] = 0
        self.gather = gather, absent
        self.ll, self.gl, self.lg = ((np.where(s < 0, 0, s), np.flatnonzero(s < 0)) for s in (ll, gl, lg))

    def complement(self, data: np.ndarray) -> sp.csc_matrix:
        """S with the entries ``data``, in slot order."""
        matrix = sp.csc_matrix((data, self.indices, self.indptr), shape=(len(self.rest),) * 2)
        matrix.has_canonical_format = True
        return matrix


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


class SystemAssembler:
    """Assembler of the saddle system, complete once built.

    Its construction groups the cells into affine classes, tabulates the
    velocity basis per class, bins the linear part into its one CSR pattern
    and derives the elimination order and its condensation plan
    (:meth:`_ensure_linear`).  It keeps the pattern, the binned data, the
    rhs, the slots of the uu keys and the plan; not the keys or the part
    values, which ``_keys`` and ``_element_values`` rebuild on request.
    Each form is one entry of a table handed to :meth:`VelocityClasses.fill`,
    which alone chooses between a class table and cell-by-cell contraction.
    Oseen and Newton matrices then only add the convection values on the uu
    slots; a residual builds no matrix.  Instances hold no caches and set
    nothing after construction, so they may be shared across sequential
    solves; distinct instances are fully independent.
    """

    def __init__(self, spaces, coeffs: ProblemCoefficients):
        self.V, self.W, self.Q = _check_spaces(spaces)
        coeffs.check_bounds()  # guards against post-construction mutation
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
        self._maps = {"u": self.V.cell_dofs, "w": self.W.cell_dofs + n_u, "p": self.Q.cell_dofs + n_u + n_w}
        self._ensure_linear()

    def _coefficient_samples(self, xq):
        c = self.coeffs
        x, y = xq[..., 0], xq[..., 1]
        nu = np.asarray(c.nu(x, y), dtype=float)
        sig = np.broadcast_to(np.asarray(c.sigma(x, y), dtype=float), nu.shape)
        for name, s, lo, hi in (("viscosity", nu, c.nu0, c.nu1), ("sigma", sig, c.sigma0, c.sigma1)):
            slack = 1e-12 * max(1.0, abs(hi))
            if not lo - slack <= s.min() <= s.max() <= hi + slack:  # NaN fails every comparison
                raise ValueError(f"{name} leaves its declared bounds [{lo}, {hi}] (sampled range [{s.min()}, {s.max()}])")
        gnu = None if c.grad_nu is None else np.asarray(c.grad_nu(x, y), dtype=float)
        return nu, sig, gnu, np.asarray(c.f(x, y), dtype=float)

    # ------------------------------------------------------------- assembly

    def _element_values(self):
        """The linear part values, each flat in the order of its block's keys,
        and the rhs.  A part's block is its name's first two letters; the
        parts come in their sum order, the forms' own, then the transposed
        parts, which reuse their originals' floats, and "mp" and "pm", which
        both hold the pressure integral.  Distinct blocks share no slot, so
        only the order of the parts of one block sets a sum."""
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
        parts = {name: vals.pop(name).ravel() for name in list(vals)}
        parts["mp"] = parts["pm"] = pmass
        return parts, rhs

    def _keys(self):
        """COO (rows, cols) of each block, in cell order; int32 where they fit."""
        o = self.block_index
        idx = np.int32 if o[4] < 2**31 else np.int64
        dofs = {b: d.astype(idx, copy=False) for b, d in self._maps.items()}
        keys = {b: _block_keys(dofs[b[0]], dofs[b[1]]) for b in ("uu", "uw", "wu", "ww", "up", "pu")}
        p_dofs, m_dofs = np.arange(o[2], o[3], dtype=idx)[:, None], np.full((self.Q.n_dofs, 1), o[3], dtype=idx)
        keys["mp"], keys["pm"] = _block_keys(m_dofs, p_dofs), _block_keys(p_dofs, m_dofs)
        return keys

    def _ensure_linear(self):
        """Sort the one pattern, bin the linear part and its rhs on it, and
        derive the elimination order from it (:meth:`_elimination_order`);
        run by the constructor, once."""
        o = self.block_index
        keys = self._keys()  # sorted before the values exist: its temporaries are gone before theirs
        pattern = CSRPattern(*zip(*keys.values()), (o[4], o[4]))
        slots = dict(zip(keys, np.split(pattern.slot, np.cumsum([len(r) for r, _ in keys.values()])[:-1])))
        del keys, pattern.slot
        vals, rhs = self._element_values()
        # part by part from zeros: the same left-to-right sums as one bincount of all parts
        self._data = np.zeros(len(pattern.indices))
        for name in list(vals):  # each part's values are dropped once binned
            np.add.at(self._data, slots[name[:2]], vals.pop(name))
        self._conv_slots = slots["uu"].copy()  # convection values come in uu-key order
        self._pattern, self._rhs = pattern, rhs
        closure = self._local_closure(slots)
        del slots  # the pattern's slots go before the order is derived
        self._elimination_order(closure)

    def _local_closure(self, slots):
        """Per cell, the slots (nc, m, m) of the blocks among the m DOFs (nc, m)
        of its closure, -1 where no block couples two: first the G DOFs of
        the spaces that share a block with a space of local DOFs, then its
        local DOFs, the last columns of their space's cell map.  Blocks pair
        up (uw and wu, up and pu), so one list spans the rows and columns."""
        maps, nc = self._maps, self.mesh.n_cells
        k = {"u": self.V.local_dofs.shape[1], "w": self.W.local_dofs.shape[1], "p": 0}
        local = [x for x in maps if k[x]]
        spans = [(x, 0, maps[x].shape[1] - k[x]) for x in maps if any(x + y in slots for y in local)]
        spans += [(x, maps[x].shape[1] - k[x], maps[x].shape[1]) for x in local]
        start = np.cumsum([0] + [b - a for _, a, b in spans])
        closure = np.full((nc, start[-1], start[-1]), -1, dtype=slots["uu"].dtype)
        for (x, a, b), i in zip(spans, start):
            for (y, c, d), j in zip(spans, start):
                if x + y in slots:
                    closure[:, i:i + b - a, j:j + d - c] = slots[x + y].reshape(nc, maps[x].shape[1], -1)[:, a:b, c:d]
        return closure, np.hstack([maps[x][:, a:b] for x, a, b in spans] + [np.empty((nc, 0), dtype=np.int64)])

    def _convection(self, beta: DiscreteField, newton: bool = False):
        """Values of ((beta . grad) u, v) in the order of the uu keys, as a
        1-tuple; with ``newton`` also those of the block differentiated in
        its advecting argument, ((u . grad) beta, v): (direct, dual).

        Per class, T[c, a, b] = sum_q w_q det v_c . (grad v_b)^T v_a, and
        the element values are beta_cell @ T (see :meth:`VelocityClasses.fill`);
        the dual swaps the roles of v_c and v_b.
        """
        coefs = self._velocity_coefficients(beta, "advecting field")[self.V.cell_dofs]
        out = [np.empty((len(coefs), coefs.shape[1] ** 2)) for _ in range(1 + newton)]
        for block, (vv, gv, _, _) in self.classes.blocks():
            # beta's basis function c, then the advected and the test function; the dual swaps c and b
            for vals, sub, ops in zip(out, ("kcqj,kbqij,kaqi", "kcqij,kbqj,kaqi"), ((vv, gv, vv), (gv, vv, vv))):
                self.classes.fill(vals, block, sub, ops, coefs, "c")
        return tuple(vals.ravel() for vals in out)

    def _velocity_coefficients(self, field: DiscreteField, name: str) -> np.ndarray:
        """The coefficients of ``field``, on V: V itself, or V's family and cell DOFs on its vertices."""
        V, s = self.V, field.space
        if s is not V and not (s.family == V.family and np.array_equal(s.cell_dofs, V.cell_dofs)
                               and np.array_equal(s.mesh.vertices, V.mesh.vertices)):
            raise ValueError(f"{name} must live on the velocity space {V!r} on {V.mesh!r}, not on {s!r} on {s.mesh!r}")
        return field.coefficients

    def _elimination_order(self, closure):
        """Set ``_plan``, the condensation plan on the cells' ``closure`` of the
        elimination order, and ``ordering_time``, the seconds both took: the
        cell-local unknowns cell by cell, then the nested-dissection order of
        the others on the pattern alone, multiplier last (it couples globally)."""
        t0 = time.perf_counter()
        centroids = self.mesh.vertices[self.mesh.cells].mean(axis=1)
        o = self.block_index
        coords = np.vstack([dof_support_centroids(o[3], np.hstack(list(self._maps.values())), centroids),
                            centroids.mean(axis=0)])
        order = nested_dissection(self._pattern, coords, last=np.array([o[3]]), first=self.local)
        self._plan = CondensationPlan(self._pattern, order, self.local, *closure, self.V.dirichlet_dofs)
        self.ordering_time = time.perf_counter() - t0

    def _system(self, data: np.ndarray, rhs: np.ndarray) -> AssembledSystem:
        """``data`` and ``rhs`` with the condensation plan of the elimination order."""
        return AssembledSystem(data, rhs, self.block_index, plan=self._plan)

    def _target_rhs(self, pressure_target: float) -> np.ndarray:
        """The linear part's rhs with the pressure target in its last row."""
        rhs = self._rhs.copy()
        rhs[-1] = pressure_target
        return rhs

    def oseen(self, beta: DiscreteField | None = None, pressure_target: float = 0.0) -> AssembledSystem:
        """Assemble the linearised system with frozen advecting field ``beta``."""
        rhs = self._target_rhs(pressure_target)
        return self._system(self._matrix(() if beta is None else self._convection(beta)), rhs)

    def _matrix(self, conv: tuple) -> np.ndarray:
        """Every step's matrix entries: the linear part plus the sum of ``conv``, a
        tuple from :meth:`_convection` or (), added at the uu slots after the
        linear sums, as one bincount of all triplets would.  Newton's dual is
        added into the direct values in place (``conv`` is consumed), giving
        the convection block plus its derivative in the advecting argument."""
        data = self._data.copy()
        if conv:
            np.add.at(data, self._conv_slots, functools.reduce(operator.iadd, conv))
        return data

    def _residual(self, state: np.ndarray, conv: np.ndarray, pressure_target: float) -> np.ndarray:
        """rhs - L state - N(beta) u, velocity Dirichlet rows zeroed, with no
        matrix built: the binned linear part L read in place, N(beta) u summed
        cell by cell from beta's convection values ``conv`` in uu-key order."""
        res = self._target_rhs(pressure_target) - self._pattern.csr(self._data) @ state
        dofs = self.V.cell_dofs
        nb = dofs.shape[1]
        res[: self.block_index[1]] -= np.bincount(
            dofs.ravel(), np.einsum("cab,cb->ca", conv.reshape(-1, nb, nb), state[dofs]).ravel(), self.V.n_dofs)
        res[self.V.dirichlet_dofs] = 0.0
        return res

    def newton_system(self, state: np.ndarray, pressure_target: float = 0.0):
        """Jacobian and residual of the nonlinear map at ``state``.

        The residual is rhs - [a + N(u_h; u_h, .) + b + b^T + multiplier]
        applied to the state, with velocity Dirichlet rows zeroed (the
        state is expected to satisfy the boundary values).  The Jacobian is
        :meth:`_matrix` of the (direct, dual) convection values at beta = u_h,
        on the Oseen pattern.
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self.block_index[4],):
            raise ValueError("state vector does not match the system size")
        conv = self._convection(DiscreteField(self.V, state[: self.block_index[1]]), newton=True)
        residual = self._residual(state, conv[0], pressure_target)
        return self._system(self._matrix(conv), self._target_rhs(pressure_target)), residual


def assemble_oseen(
    spaces,
    coeffs: ProblemCoefficients,
    beta: DiscreteField | None = None,
    pressure_target: float = 0.0,
) -> AssembledSystem:
    """One-shot Oseen assembly; see :class:`SystemAssembler` for solver loops."""
    return SystemAssembler(spaces, coeffs).oseen(beta=beta, pressure_target=pressure_target)


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
    symmetric.  ``g`` follows :func:`vvpflow.spaces.boundary_values`; None
    (zero data) lifts nothing and skips the interpolation and the product.
    ``space`` must have the plan's ``constrained`` DOFs (else ``ValueError``).
    It writes only the plan's ``dropped`` and ``pinned`` slots of a copy of
    the system's entries, zeros kept.
    """
    if system.bc_applied:
        raise RuntimeError("Dirichlet data was already applied to this system")
    plan, dofs = system.plan, space.dirichlet_dofs
    if not np.array_equal(dofs, plan.constrained):
        raise ValueError(f"the Dirichlet DOFs of {space!r} are not those the condensation plan constrains")
    lift, rhs = np.zeros(system.n), system.rhs.copy()
    if g is not None:
        lift[dofs] = boundary_values(space, g)
        rhs -= system.matrix @ lift
    rhs[dofs] = lift[dofs]
    data = system.data.copy()
    data[plan.dropped], data[plan.pinned] = 0.0, 1.0
    return replace(system, data=data, rhs=rhs, bc_applied=True)
