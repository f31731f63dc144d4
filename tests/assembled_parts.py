"""The parts of an assembled system, rebuilt for tests from what an
assembler derives on request: its block keys (``_keys``), the values of
its linear parts (``_element_values``) and the convection values
(``_convection``).  The assembler keeps none of them."""

from vvpflow.assembly import triplets_to_csr


def part_triplets(asm, beta=None):
    """Each linear part, and with ``beta`` the convection part "uu_conv", as
    COO triplets: its block's keys and its values."""
    keys = asm._keys()
    parts = {name: keys[name[:2]] + (vals,) for name, vals in asm._element_values()[0].items()}
    if beta is not None:
        parts["uu_conv"] = keys["uu"] + asm._convection(beta)
    return parts


def parts(asm, beta=None):
    """Each part of :func:`part_triplets` as a CSR matrix of the system's size."""
    n = asm.block_index[4]
    return {name: triplets_to_csr(*triplets, (n, n)) for name, triplets in part_triplets(asm, beta).items()}
