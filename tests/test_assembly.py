import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from vvpflow.assembly import (
    AssembledSystem,
    CSRPattern,
    ProblemCoefficients,
    SystemAssembler,
    _contract,
    _einsum_path,
    apply_dirichlet,
    assemble_gram_X,
    assemble_newton,
    assemble_oseen,
    triplets_to_csr,
)
from vvpflow.elements import GRAD_LAMBDA
from vvpflow.mesh import build_structured, cell_geometry
from vvpflow.quadrature import physical_points, quadrature
from vvpflow.solver import solve_linear
from vvpflow.spaces import DiscreteField, build_space, eval_field, interpolate, method_spaces, tabulate
from vvpflow.verify import coefficients_from_case, example1_case_2d

RNG = np.random.default_rng(42)


def zero_vector(x, y):
    return np.zeros(np.shape(x) + (2,))


def constant_coefficients(nu=1.0, sigma=1.0, kappa1=0.5, kappa2=1.0, f=zero_vector):
    return ProblemCoefficients(
        nu=lambda x, y: np.full_like(x, nu),
        sigma=lambda x, y: np.full_like(x, sigma),
        f=f,
        kappa1=kappa1,
        kappa2=kappa2,
        nu0=nu,
        nu1=nu,
        sigma0=sigma,
        sigma1=sigma,
    )


def degenerate_coefficients():
    # sigma = 0 and disabled augmentation: only representable with the
    # validation escape hatch
    return ProblemCoefficients(
        nu=lambda x, y: np.ones_like(x),
        sigma=lambda x, y: np.zeros_like(x),
        f=zero_vector,
        kappa1=0.0,
        kappa2=0.0,
        nu0=1.0,
        nu1=1.0,
        sigma0=0.0,
        sigma1=0.0,
        validate=False,
    )


def example1_setup(n=4, family="taylor-hood", vorticity="dg1"):
    case = example1_case_2d()
    coeffs = coefficients_from_case(case)
    spaces = method_spaces(build_structured(n, n), family, vorticity)
    return case, coeffs, spaces


class TestProblemCoefficients:
    def test_kappa1_above_limit_rejected(self):
        with pytest.raises(ValueError):
            constant_coefficients(nu=0.1, kappa1=0.08, kappa2=0.05)

    def test_kappa1_at_limit_accepted(self):
        c = constant_coefficients(nu=0.1, kappa1=(2.0 / 3.0) * 0.1, kappa2=0.05)
        assert c.kappa1 == pytest.approx(2.0 / 30.0)

    def test_nonpositive_kappa2_rejected(self):
        with pytest.raises(ValueError):
            constant_coefficients(kappa2=0.0)

    @pytest.mark.parametrize("kappa2", [np.nan, np.inf])
    def test_non_finite_kappa2_rejected(self, kappa2):
        with pytest.raises(ValueError, match="kappa2"):
            constant_coefficients(kappa2=kappa2)

    def test_infinite_nu1_rejected(self):
        with pytest.raises(ValueError, match="viscosity"):
            ProblemCoefficients(nu=lambda x, y: np.ones_like(x), sigma=lambda x, y: np.ones_like(x), f=zero_vector,
                                kappa1=0.1, kappa2=0.1, nu0=1.0, nu1=np.inf, sigma0=1.0, sigma1=1.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ProblemCoefficients(
                nu=lambda x, y: np.ones_like(x),
                sigma=lambda x, y: np.ones_like(x),
                f=zero_vector,
                kappa1=0.1,
                kappa2=0.1,
                nu0=1.0,
                nu1=0.5,
                sigma0=1.0,
                sigma1=1.0,
            )

    def test_mutated_kappa1_caught_at_assembly(self):
        c = constant_coefficients(nu=0.1, kappa1=0.05, kappa2=0.05)
        c.kappa1 = 0.2  # corrupt after construction
        spaces = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
        with pytest.raises(ValueError, match="kappa1"):
            assemble_oseen(spaces, c)

    def test_viscosity_leaving_bounds_caught_at_assembly(self):
        bad = ProblemCoefficients(
            nu=lambda x, y: np.full_like(x, 0.1),
            sigma=lambda x, y: np.ones_like(x),
            f=zero_vector,
            kappa1=0.2,
            kappa2=0.2,
            nu0=0.5,
            nu1=1.0,
            sigma0=1.0,
            sigma1=1.0,
        )
        spaces = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
        with pytest.raises(ValueError, match="bounds"):
            assemble_oseen(spaces, bad)

    def test_sigma_leaving_bounds_caught_at_assembly(self):
        case = example1_case_2d()
        coeffs = coefficients_from_case(case)
        coeffs.sigma = lambda x, y: 0.5 * case.sigma(x, y)  # the declared bounds stay
        spaces = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
        with pytest.raises(ValueError, match="sigma leaves its declared bounds"):
            assemble_oseen(spaces, coeffs)


def test_mismatched_meshes_rejected():
    m1, m2 = build_structured(2, 2), build_structured(2, 2)
    V = build_space(m1, "p2", vector=True)
    W = build_space(m2, "dg1")
    Q = build_space(m1, "p1")
    with pytest.raises(ValueError, match="mesh"):
        assemble_oseen((V, W, Q), constant_coefficients())


def test_degenerate_zero_data_gives_zero_rhs():
    spaces = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
    system = assemble_oseen(spaces, degenerate_coefficients())
    assert np.all(system.rhs == 0.0)


def test_zero_data_solves_to_zero():
    spaces = method_spaces(build_structured(2, 2), "taylor-hood", "dg1")
    system = assemble_oseen(spaces, constant_coefficients())
    bc = apply_dirichlet(system, spaces[0], None)
    x = solve_linear(bc)
    assert np.abs(x).max() <= 1e-14


def test_kappa_blocks_match_hand_outer_products():
    # P1 vector velocity: constant per-basis curl/div, so each cell
    # contributes area * (k1 c c' + k2 d d'); assembled by hand here
    mesh = build_structured(1, 1)
    V = build_space(mesh, "p1", vector=True)
    W = build_space(mesh, "dg0")
    Q = build_space(mesh, "p1")
    k1, k2 = 0.5, 1.0
    system = assemble_oseen((V, W, Q), constant_coefficients(kappa1=k1, kappa2=k2), keep_parts=True)
    expected = np.zeros((V.n_dofs, V.n_dofs))
    for cell in range(mesh.n_cells):
        _, inv_t, area = cell_geometry(mesh, cell)
        grads = GRAD_LAMBDA @ inv_t.T  # physical gradients of the barycentrics
        c_vec = np.empty(6)
        d_vec = np.empty(6)
        for k in range(3):
            c_vec[2 * k] = -grads[k, 1]  # curl of lambda_k e_x
            c_vec[2 * k + 1] = grads[k, 0]  # curl of lambda_k e_y
            d_vec[2 * k] = grads[k, 0]
            d_vec[2 * k + 1] = grads[k, 1]
        local = area * (k1 * np.outer(c_vec, c_vec) + k2 * np.outer(d_vec, d_vec))
        dofs = V.cell_dofs[cell]
        expected[np.ix_(dofs, dofs)] += local
    got = (system.parts["uu_curl"] + system.parts["uu_div"]).toarray()[: V.n_dofs, : V.n_dofs]
    assert np.allclose(got, expected, atol=1e-14)


def _bitwise_negated_transpose(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    at = a.tocsr().copy()
    bt = b.T.tocsr().copy()
    at.sum_duplicates()
    bt.sum_duplicates()
    at.sort_indices()
    bt.sort_indices()
    return (
        np.array_equal(at.indptr, bt.indptr)
        and np.array_equal(at.indices, bt.indices)
        and np.array_equal(at.data, -bt.data)
    )


def test_viscous_coupling_blocks_are_exact_negated_transposes():
    _, coeffs, spaces = example1_setup(n=2)
    system = assemble_oseen(spaces, coeffs, keep_parts=True)
    assert _bitwise_negated_transpose(system.parts["uw_nu"], system.parts["wu_nu"])
    # and the composite blocks cancel exactly when added
    total = system.parts["uw_nu"] + system.parts["wu_nu"].T
    assert total.count_nonzero() == 0


def test_pressure_blocks_are_exact_transposes():
    _, coeffs, spaces = example1_setup(n=2)
    system = assemble_oseen(spaces, coeffs, keep_parts=True)
    up = system.parts["up"].tocsr()
    pu_t = system.parts["pu"].T.tocsr()
    up.sort_indices()
    pu_t.sort_indices()
    assert np.array_equal(up.indptr, pu_t.indptr)
    assert np.array_equal(up.indices, pu_t.indices)
    assert np.array_equal(up.data, pu_t.data)


@pytest.mark.parametrize("family,vorticity", [("mini", "cg1"), ("bernardi-raugel", "dg0")])
def test_transposed_blocks_are_exact_on_other_families(family, vorticity):
    _, coeffs, spaces = example1_setup(n=3, family=family, vorticity=vorticity)
    system = assemble_oseen(spaces, coeffs, keep_parts=True)
    up, pu_t = system.parts["up"], system.parts["pu"].T.tocsr()
    pu_t.sort_indices()
    assert np.array_equal(up.indptr, pu_t.indptr)
    assert np.array_equal(up.indices, pu_t.indices)
    assert np.array_equal(up.data, pu_t.data)
    assert _bitwise_negated_transpose(system.parts["uw_nu"], system.parts["wu_nu"])


def test_duplicates_sum_left_to_right_in_input_order():
    # from the left (1e16 + 1) - 1e16 == 0, while (1e16 - 1e16) + 1 == 1
    rows = np.array([0, 1, 0, 0, 1, 1, 1, 0])
    cols = np.array([2, 1, 2, 0, 1, 1, 3, 2])
    vals = np.array([1e16, 1.0, 1.0, 5.0, 1e16, -1e16, 7.0, -1e16])
    m = triplets_to_csr(rows, cols, vals, (2, 4))
    assert m.has_canonical_format
    assert np.array_equal(m.indptr, [0, 2, 4])
    assert np.array_equal(m.indices, [0, 2, 1, 3])
    assert m[0, 2] == 0.0  # 1e16, 1.0, -1e16
    assert m[1, 1] == 0.0  # 1.0, 1e16, -1e16; a + (b + c) would give 1.0
    assert np.array_equal(m.data, [5.0, 0.0, 0.0, 7.0])  # zero sums stay stored
    with pytest.raises(ValueError, match="outside"):
        triplets_to_csr(rows, cols + 2, vals, (2, 4))


def test_triplet_reduction_matches_scipy_up_to_roundoff():
    rows = RNG.integers(0, 40, 2000)
    cols = RNG.integers(0, 30, 2000)
    vals = RNG.standard_normal(2000)
    m = triplets_to_csr(rows, cols, vals, (40, 30))
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(40, 30)).tocsr()
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.indices, ref.indices)
    assert np.allclose(m.data, ref.data, rtol=0.0, atol=1e-14)


def test_separate_assemblers_are_bit_identical():
    _, coeffs, spaces = example1_setup(n=3)
    state = RNG.standard_normal(SystemAssembler(spaces, coeffs).block_index[4])
    first, second = SystemAssembler(spaces, coeffs), SystemAssembler(spaces, coeffs)
    beta = DiscreteField(spaces[0], state[: first.block_index[1]])
    matrices = [
        first.oseen(beta=beta).matrix,
        first.oseen(beta=beta).matrix,  # through the cached pattern
        second.oseen(beta=beta).matrix,
    ]
    jacobians = [asm.newton_system(state)[0].matrix for asm in (first, second)]
    for group in (matrices, jacobians):
        for m in group[1:]:
            assert np.array_equal(m.indptr, group[0].indptr)
            assert np.array_equal(m.indices, group[0].indices)
            assert np.array_equal(m.data, group[0].data)


def part_triplets(asm):
    """The linear parts as COO triplets: the block keys and the values,
    both rebuilt by the assembler (it keeps neither)."""
    keys = asm._keys()
    return {name: keys[name[:2]] + (vals,) for name, vals in asm._element_values()[0].items()}


@pytest.mark.parametrize("n, family, vorticity", [(4, "taylor-hood", "dg1"), (3, "bernardi-raugel", "dg0")])
def test_linear_matrix_is_one_in_order_binning_of_its_parts(n, family, vorticity):
    _, coeffs, spaces = example1_setup(n=n, family=family, vorticity=vorticity)
    asm = SystemAssembler(spaces, coeffs)
    matrix = asm.oseen().matrix
    parts = part_triplets(asm)
    assert len(parts) == 13
    reference = triplets_to_csr(*(np.concatenate(t) for t in zip(*parts.values())), matrix.shape)
    assert np.array_equal(matrix.indptr, reference.indptr)
    assert np.array_equal(matrix.indices, reference.indices)
    assert np.array_equal(matrix.data, reference.data)


def test_linear_assembly_memory_per_assembled_value():
    # traced peak growth from n=16 to n=32 per byte of part values: the
    # keys of each block are built once, not once per term and chunk
    case, coeffs, _ = example1_setup()
    peaks, values = [], []
    for n in (16, 32):
        asm = SystemAssembler(method_spaces(build_structured(n, n, case.rect), "taylor-hood", "dg1"), coeffs)
        tracemalloc.start()
        try:
            asm._ensure_linear()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        values.append(sum(vals.nbytes for _, _, vals in part_triplets(asm).values()))
    assert (peaks[1] - peaks[0]) / (values[1] - values[0]) <= 6.0


def _held_arrays(value):
    """The arrays an assembler holds, through its containers and its CSR pattern."""
    if isinstance(value, (SystemAssembler, CSRPattern)):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item)


@pytest.mark.parametrize("family, vorticity", [("taylor-hood", "dg1"), ("bernardi-raugel", "dg0")])
def test_assembler_holds_no_block_keys(family, vorticity):
    _, coeffs, spaces = example1_setup(n=3, family=family, vorticity=vorticity)
    asm = SystemAssembler(spaces, coeffs)
    asm.oseen()
    keys = [k for pair in asm._keys().values() for k in pair]
    assert len(keys) == 16
    assert not any(np.array_equal(held, key) for held in _held_arrays(asm) for key in keys)
    # the parts are rebuilt on each request, bit for bit
    beta = interpolate(spaces[0], lambda x, y: np.stack([y, -x], axis=-1))
    first, second = (asm.oseen(beta=beta, keep_parts=True).parts for _ in range(2))
    assert first.keys() == second.keys() and len(first) == 14
    for name, part in first.items():
        assert np.array_equal(part.indptr, second[name].indptr)
        assert np.array_equal(part.indices, second[name].indices)
        assert np.array_equal(part.data, second[name].data)


@pytest.mark.parametrize(
    "n, family, vorticity", [(8, "taylor-hood", "dg1"), (3, "mini", "cg1"), (3, "bernardi-raugel", "dg0")]
)
def test_dirichlet_elimination_matches_the_mask_product(n, family, vorticity):
    case, coeffs, spaces = example1_setup(n=n, family=family, vorticity=vorticity)
    system = SystemAssembler(spaces, coeffs).oseen(beta=interpolate(spaces[0], case.u))
    eliminated = apply_dirichlet(system, spaces[0], case.u).matrix
    keep = np.ones(system.n)
    keep[spaces[0].dirichlet_dofs] = 0.0
    mask = sp.diags(keep)
    reference = (mask @ system.matrix @ mask + sp.diags(1.0 - keep)).tocsr()
    for m in (eliminated, reference):
        m.sort_indices()
    assert np.array_equal(eliminated.indptr, reference.indptr)
    assert np.array_equal(eliminated.indices, reference.indices)
    assert np.array_equal(eliminated.data, reference.data)
    # the pattern stores exact-zero sums; elimination drops them, as the product did
    assert np.any(system.matrix.data == 0.0)
    assert np.all(eliminated.data != 0.0)


def test_multiplier_row_structure():
    _, coeffs, spaces = example1_setup(n=2)
    system = assemble_oseen(spaces, coeffs)
    o = system.block_index
    m = o[3]
    dense_row = system.matrix[m].toarray().ravel()
    assert dense_row[m] == 0.0
    assert np.all(dense_row[: o[2]] == 0.0)  # couples to pressure only
    assert np.all(dense_row[o[2] : o[3]] > 0.0)  # P1 hat integrals
    col = system.matrix[:, m].toarray().ravel()
    assert np.array_equal(col, dense_row)


def test_skew_pairing_identity():
    # N(b;u,v) + N(b;v,u) + (div b, u.v) = 0 for zero-trace u, v and
    # polynomial data under exact quadrature
    _, coeffs, spaces = example1_setup(n=4)
    V = spaces[0]
    # quadratic advecting field with nonvanishing divergence 2x + 1
    beta = interpolate(V, lambda x, y: np.stack([x**2 + 2.0 * y, x + y], axis=-1))
    system = assemble_oseen(spaces, coeffs, beta=beta, keep_parts=True)
    K = system.parts["uu_conv"][: V.n_dofs, : V.n_dofs]

    free = np.setdiff1d(np.arange(V.n_dofs), V.dirichlet_dofs)
    u = np.zeros(V.n_dofs)
    v = np.zeros(V.n_dofs)
    u[free] = RNG.standard_normal(len(free))
    v[free] = RNG.standard_normal(len(free))

    n1 = float(v @ (K @ u))
    n2 = float(u @ (K @ v))

    # independent quadrature of (div beta, u . v)
    rule = quadrature(6)
    from vvpflow.mesh import geometry_arrays

    mesh = V.mesh
    jac, inv, det = geometry_arrays(mesh)
    tab = tabulate(V, rule.points)
    cells = np.arange(mesh.n_cells)
    _, gb = eval_field(beta, tab, cells, inv, grad=True)
    div_b = gb[..., 0, 0] + gb[..., 1, 1]
    uu = eval_field(DiscreteField(V, u), tab, cells, inv)
    vv = eval_field(DiscreteField(V, v), tab, cells, inv)
    wdet = rule.weights[None, :] * det[:, None]
    pairing = float(np.einsum("cq,cq,cqi,cqi->", wdet, div_b, uu, vv))

    scale = max(abs(n1), abs(n2), abs(pairing))
    assert abs(n1 + n2 + pairing) / scale < 1e-10


def test_coercivity_sampled_on_random_fields():
    case = example1_case_2d()
    coeffs = coefficients_from_case(case, kappa1=(2.0 / 3.0) * 0.1 * 0.999, kappa2=0.05)
    spaces = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
    system = assemble_oseen(spaces, coeffs)
    o = system.block_index
    a_xx = system.matrix[: o[2], : o[2]]
    sym = 0.5 * (a_xx + a_xx.T)
    free_u = np.setdiff1d(np.arange(o[1]), spaces[0].dirichlet_dofs)
    for _ in range(100):
        x = np.zeros(o[2])
        x[free_u] = RNG.standard_normal(len(free_u))
        x[o[1] :] = RNG.standard_normal(o[2] - o[1])
        assert x @ (sym @ x) > 0.0


class TestApplyDirichlet:
    def test_zero_data_gives_identity_rows(self):
        _, coeffs, spaces = example1_setup(n=2)
        system = assemble_oseen(spaces, coeffs)
        bc = apply_dirichlet(system, spaces[0], None)
        for dof in spaces[0].dirichlet_dofs[:10]:
            row = bc.matrix[int(dof)].toarray().ravel()
            expected = np.zeros_like(row)
            expected[dof] = 1.0
            assert np.array_equal(row, expected)
            assert bc.rhs[dof] == 0.0

    def test_double_application_rejected(self):
        _, coeffs, spaces = example1_setup(n=2)
        bc = apply_dirichlet(assemble_oseen(spaces, coeffs), spaces[0], None)
        with pytest.raises(RuntimeError):
            apply_dirichlet(bc, spaces[0], None)

    def test_symmetric_blocks_stay_symmetric(self):
        # beta = 0 and constant viscosity: the velocity block is symmetric
        spaces = method_spaces(build_structured(3, 3), "taylor-hood", "dg1")
        system = assemble_oseen(spaces, constant_coefficients())
        bc = apply_dirichlet(system, spaces[0], lambda x, y: np.stack([y, x], axis=-1))
        n_u = bc.block_index[1]
        block = bc.matrix[:n_u, :n_u]
        asym = abs(block - block.T).max()
        assert asym < 1e-13

    def test_lifting_moves_data_to_rhs(self):
        case, coeffs, spaces = example1_setup(n=2)
        system = assemble_oseen(spaces, coeffs)
        bc = apply_dirichlet(system, spaces[0], case.u)
        vals = bc.rhs[spaces[0].dirichlet_dofs]
        assert np.abs(vals).max() > 0.1  # boundary data is nonzero


def test_elimination_order_is_permutation_with_multiplier_last():
    _, coeffs, spaces = example1_setup(n=4)
    system = assemble_oseen(spaces, coeffs)
    perm = system.ordering
    assert np.array_equal(np.sort(perm), np.arange(system.n))
    assert perm[-1] == system.block_index[3]


def test_system_split_blocks():
    _, coeffs, spaces = example1_setup(n=2)
    system = assemble_oseen(spaces, coeffs)
    x = np.arange(system.n, dtype=float)
    u, w, p, m = system.split(x)
    assert len(u) == spaces[0].n_dofs
    assert len(w) == spaces[1].n_dofs
    assert len(p) == spaces[2].n_dofs
    assert m == float(system.n - 1)
    assert np.array_equal(np.concatenate([u, w, p, [m]]), x)


def test_size_mismatch_rejected():
    import scipy.sparse as sp2

    with pytest.raises(ValueError):
        AssembledSystem(sp2.identity(5).tocsr(), np.zeros(4), (0, 1, 2, 3, 4))


def test_assembly_determinism():
    _, coeffs, spaces = example1_setup(n=3)
    beta = interpolate(spaces[0], lambda x, y: np.stack([y, -x], axis=-1))
    a = assemble_oseen(spaces, coeffs, beta=beta)
    b = assemble_oseen(spaces, coeffs, beta=beta)
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.rhs, b.rhs)


@pytest.mark.parametrize("n, family, vorticity", [(8, "taylor-hood", "dg1"), (3, "mini", "cg1")])
def test_newton_matrix_has_the_oseen_pattern(n, family, vorticity):
    _, coeffs, spaces = example1_setup(n=n, family=family, vorticity=vorticity)
    asm = SystemAssembler(spaces, coeffs)
    state = RNG.standard_normal(asm.block_index[4])
    oseen = asm.oseen(beta=DiscreteField(spaces[0], state[: asm.block_index[1]])).matrix
    jac = asm.newton_system(state)[0].matrix
    # entries whose contributions cancel to exactly 0.0 keep their slot too
    assert np.any(oseen.data == 0.0)
    assert np.array_equal(jac.indptr, oseen.indptr)
    assert np.array_equal(jac.indices, oseen.indices)


class TestNewtonSystem:
    def test_zero_state_matches_advection_free_oseen(self):
        _, coeffs, spaces = example1_setup(n=2)
        asm = SystemAssembler(spaces, coeffs)
        jac, residual = asm.newton_system(np.zeros(asm.block_index[4]))
        base = asm.oseen()
        # identical up to the summation-order roundoff of the appended
        # zero-valued convection entries
        diff = jac.matrix - base.matrix
        assert abs(diff).max() <= 1e-14
        free = np.setdiff1d(np.arange(base.n), spaces[0].dirichlet_dofs)
        assert np.array_equal(residual[free], base.rhs[free])
        assert np.all(residual[spaces[0].dirichlet_dofs] == 0.0)

    def test_directional_derivative_is_second_order(self):
        _, coeffs, spaces = example1_setup(n=2)
        asm = SystemAssembler(spaces, coeffs)
        n = asm.block_index[4]
        state = np.zeros(n)
        state[: asm.block_index[1]] = 0.1 * RNG.standard_normal(asm.block_index[1])
        state[spaces[0].dirichlet_dofs] = 0.0
        delta = RNG.standard_normal(n)
        delta[spaces[0].dirichlet_dofs] = 0.0

        free = np.setdiff1d(np.arange(n), spaces[0].dirichlet_dofs)
        jac, res0 = asm.newton_system(state)
        gaps = []
        for eps in (1e-3, 1e-4):
            _, res_eps = asm.newton_system(state + eps * delta)
            gap = res_eps - res0 + eps * (jac.matrix @ delta)
            gaps.append(np.abs(gap[free]).max())
        # the residual is quadratic in the state, so the gap scales as eps^2
        ratio = gaps[0] / gaps[1]
        assert 80.0 < ratio < 120.0

    def test_state_length_validated(self):
        _, coeffs, spaces = example1_setup(n=2)
        with pytest.raises(ValueError):
            assemble_newton(spaces, coeffs, np.zeros(3))


class TestGramMatrix:
    def setup_method(self):
        self.spaces = method_spaces(build_structured(4, 4), "taylor-hood", "dg1")
        self.G = assemble_gram_X(self.spaces)
        self.n_u = self.spaces[0].n_dofs

    def norm2(self, u_field=None, w_field=None):
        x = np.zeros(self.n_u + self.spaces[1].n_dofs)
        if u_field is not None:
            x[: self.n_u] = u_field.coefficients
        if w_field is not None:
            x[self.n_u :] = w_field.coefficients
        return float(x @ (self.G @ x))

    def test_constant_velocity(self):
        u = interpolate(self.spaces[0], lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1))
        assert self.norm2(u_field=u) == pytest.approx(1.0, abs=1e-13)

    def test_shear_velocity(self):
        u = interpolate(self.spaces[0], lambda x, y: np.stack([y, np.zeros_like(x)], axis=-1))
        # |v|^2 = 1/3, curl^2 = 1, div^2 = 0
        assert self.norm2(u_field=u) == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_positive_definite(self):
        sym_gap = abs(self.G - self.G.T).max()
        assert sym_gap < 1e-14
        for _ in range(20):
            x = RNG.standard_normal(self.G.shape[0])
            assert x @ (self.G @ x) > 0.0
        assert np.zeros(self.G.shape[0]) @ (self.G @ np.zeros(self.G.shape[0])) == 0.0


@pytest.mark.parametrize("subscripts,shapes", [
    ("kq,kcqj,kbqij,kaqi->kcab", [(2, 12), (2, 12, 12, 2), (2, 12, 12, 2, 2), (2, 12, 12, 2)]),
    ("kq,kc,kcqij,kbqj,kaqi->kab", [(40, 12), (40, 12), (40, 12, 12, 2, 2), (40, 12, 12, 2), (40, 12, 12, 2)]),
    ("kq,kbqij,kaqi->kqjab", [(3, 12), (3, 12, 12, 2, 2), (3, 12, 12, 2)]),
    ("cq,caq,bq->cab", [(5, 12), (5, 12, 12), (3, 12)]),
])
def test_cached_contraction_path_gives_the_same_floats(subscripts, shapes):
    ops = [RNG.standard_normal(s) for s in shapes]
    expected = np.einsum(subscripts, *ops, optimize=True)
    assert np.array_equal(_contract(subscripts, *ops), expected)
    hits = _einsum_path.cache_info().hits
    assert np.array_equal(_contract(subscripts, *ops), expected)
    assert _einsum_path.cache_info().hits == hits + 1
