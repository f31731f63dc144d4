"""``dump_systems.py --compare`` names every array in which two dumps differ."""

import numpy as np

import dump_systems

ARRAYS = {
    "s/oseen.data": np.array([1.0, 2.0, 3.0]),
    "s/oseen.indices": np.array([0, 2, 1], dtype=np.int32),
    "s/oseen.rhs": np.array([0.5, -0.5]),
    "s/newton.velocity_increments": np.array([1.0, 0.1]),
}


def _dump(path, arrays):
    np.savez(path, **arrays)
    return str(path)


def test_identical_dumps_compare_equal(tmp_path, capsys):
    a, b = _dump(tmp_path / "a.npz", ARRAYS), _dump(tmp_path / "b.npz", ARRAYS)
    assert dump_systems.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "every array is identical\n"


def test_every_difference_is_listed(tmp_path, capsys):
    changed = dict(ARRAYS)
    changed["s/oseen.data"] = np.array([1.0, 2.0, 3.3])
    changed["s/oseen.rhs2"] = changed.pop("s/oseen.rhs")  # renamed
    changed["s/newton.velocity_increments"] = ARRAYS["s/newton.velocity_increments"] * (1.0 + 1e-14)  # tolerated
    a, b = _dump(tmp_path / "a.npz", ARRAYS), _dump(tmp_path / "b.npz", changed)
    assert dump_systems.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s/oseen.data: 1 of 3 entries differ, largest relative gap 9.091e-02, largest gap over the largest entry 9.091e-02",
        f"s/oseen.rhs: only in {a}",
        f"s/oseen.rhs2: only in {b}",
    ]


def test_roundoff_of_a_near_zero_entry_is_told_from_a_moved_array(tmp_path, capsys):
    before = {"s/multiplier": np.array([1.0, 1e-17])}
    after = {"s/multiplier": np.array([1.0, 3e-17])}
    a, b = _dump(tmp_path / "a.npz", before), _dump(tmp_path / "b.npz", after)
    assert dump_systems.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s/multiplier: 1 of 2 entries differ, largest relative gap 6.667e-01, largest gap over the largest entry 2.000e-17",
    ]
