"""``dump_systems.py --compare`` names every array in which two dumps differ
and gates each by the bound of its class."""

import numpy as np

import dump_systems

ARRAYS = {
    "s/oseen.data": np.array([1.0, 2.0, 3.0]),
    "s/oseen.indices": np.array([0, 2, 1], dtype=np.int32),
    "s/oseen.rhs": np.array([0.5, -0.5]),
    "s/picard.velocity_increments": np.array([1.0, 0.1]),
}
SOLUTION_BOUND = "<= 1e-08 of the largest entry (the multiplier: of its pressure)"


def _dump(path, arrays):
    np.savez(path, **arrays)
    return str(path)


def _solve(rng, steps=3):
    """The arrays a dump holds for one solve."""
    return {
        "t/newton.residual_history": np.logspace(0, -10, steps + 1),
        "t/newton.iterations": np.array(steps),
        "t/newton.u": rng.standard_normal(50),
        "t/newton.p": rng.standard_normal(20),
        "t/newton.multiplier": np.array(3e-17),
        "t/newton.linear_stats": np.array([3, 1, 2, 5, 0, 9000, 24, 1, 0]),
        "t/dirichlet.indices": np.array([0, 1, 2], dtype=np.int32),
        "t/oseen.ordering": np.arange(6),
    }


def test_identical_dumps_compare_equal(tmp_path, capsys):
    a, b = _dump(tmp_path / "a.npz", ARRAYS), _dump(tmp_path / "b.npz", ARRAYS)
    assert dump_systems.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "every array is identical\n"


def test_every_difference_is_listed(tmp_path, capsys):
    changed = dict(ARRAYS)
    changed["s/oseen.data"] = np.array([1.0, 2.0, 3.3])
    changed["s/oseen.rhs2"] = changed.pop("s/oseen.rhs")  # renamed
    changed["s/picard.velocity_increments"] = ARRAYS["s/picard.velocity_increments"] * (1.0 + 1e-14)  # kept
    a, b = _dump(tmp_path / "a.npz", ARRAYS), _dump(tmp_path / "b.npz", changed)
    assert dump_systems.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s/oseen.data: 1 of 3 entries differ, largest relative gap 9.091e-02, largest gap over the largest entry "
        "9.091e-02 [exact: identical; exceeded]",
        f"s/oseen.rhs: only in {a} [exact: identical; exceeded]",
        "s/picard.velocity_increments: 2 of 2 entries differ, largest relative gap 9.992e-15, largest gap over the "
        f"largest entry 9.992e-15 [solution: {SOLUTION_BOUND}; kept]",
        f"s/oseen.rhs2: only in {b} [exact: identical; exceeded]",
    ]


def test_roundoff_of_a_near_zero_entry_is_told_from_a_moved_array(tmp_path, capsys):
    before = {"s/multiplier": np.array([1.0, 1e-17])}
    after = {"s/multiplier": np.array([1.0, 3e-17])}
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert dump_systems.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s/multiplier: 1 of 2 entries differ, largest relative gap 6.667e-01, largest gap over the largest entry "
        "2.000e-17 [exact: identical; exceeded]",
    ]


def test_the_gate_passes_a_re_summed_solution_and_the_named_arrays(tmp_path, capsys):
    rng = np.random.default_rng(3)
    before = _solve(rng)
    terms = rng.standard_normal((3, 50))
    after = dict(before)
    before["t/newton.u"], after["t/newton.u"] = (terms[0] + terms[1]) + terms[2], terms[0] + (terms[1] + terms[2])
    after["t/newton.multiplier"] = np.array(-8e-17)  # roundoff against a pressure of order 1
    after["t/newton.residual_history"] = before["t/newton.residual_history"] * 0.5
    after["t/newton.linear_stats"] = before["t/newton.linear_stats"] + np.eye(9, dtype=int)[5]  # the fill
    after["t/dirichlet.indices"] = np.arange(5, dtype=np.int32)
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert not np.array_equal(before["t/newton.u"], after["t/newton.u"])
    assert dump_systems.main(["--compare", a, b]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "t/newton.residual_history", "t/newton.u", "t/newton.multiplier", "t/newton.linear_stats",
        "t/dirichlet.indices"]
    assert all(line.endswith("; kept]") for line in lines)
    assert lines[1].endswith(f"[solution: {SOLUTION_BOUND}; kept]")
    assert lines[4] == "t/dirichlet.indices: (3,) int32 against (5,) int32 [named: may move; kept]"


def test_the_gate_fails_a_moved_step_count(tmp_path, capsys):
    rng = np.random.default_rng(4)
    before = _solve(rng)
    after = dict(before, **{"t/newton.iterations": np.array(4)})
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert dump_systems.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "t/newton.iterations: 1 of 1 entries differ, largest relative gap 2.500e-01, largest gap over the largest "
        "entry 2.500e-01 [exact: identical; exceeded]",
    ]


def test_the_gate_fails_a_solution_moved_by_1e_6(tmp_path, capsys):
    rng = np.random.default_rng(5)
    before = _solve(rng)
    after = dict(before, **{"t/newton.p": before["t/newton.p"] * (1.0 + 1e-6)})
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert dump_systems.main(["--compare", a, b]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("t/newton.p: 20 of 20 entries differ")
    assert line.endswith(f"[solution: {SOLUTION_BOUND}; exceeded]")


def test_the_gate_fails_a_final_residual_above_the_tolerance_and_an_unnamed_counter(tmp_path, capsys):
    rng = np.random.default_rng(6)
    before = _solve(rng)
    after = dict(before)
    after["t/newton.residual_history"] = np.array([1.0, 1e-3, 1e-6, 2e-8])
    after["t/newton.linear_stats"] = before["t/newton.linear_stats"] + np.eye(9, dtype=int)[0]  # a solve more
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert dump_systems.main(["--compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["t/newton.residual_history", "t/newton.linear_stats"]
    assert all(line.endswith("; exceeded]") for line in lines)
