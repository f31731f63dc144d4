import numpy as np
import pytest

from vvpflow.cli import (
    RunConfig,
    _sci3,
    main,
    parse_config,
    print_diagnostics,
    serialize_config,
    write_csv,
    write_vtk,
)
from vvpflow.mesh import build_structured
from vvpflow.solver import DiagnosticsConfig
from vvpflow.spaces import DiscreteField, build_space, interpolate
from vvpflow.verify import ConvergenceReport


def fake_report(partial=False):
    return ConvergenceReport(
        family="taylor-hood",
        vorticity="dg1",
        levels=[(0.707, 84), (0.354, 284)],
        errors=[(8.52e-1, 5.44e-1, 2.33e-1), (2.49e-1, 1.41e-1, 4.64e-2)],
        rates=[(1.772, 1.948, 2.326)],
        iterations=[3, 3],
        converged=[True, not partial],
        partial=partial,
    )


class TestParseConfig:
    def test_flags_with_defaults(self):
        cfg = parse_config(["convergence", "--family", "taylor-hood", "--vorticity", "dg1", "--levels", "5"])
        assert cfg.command == "convergence"
        assert cfg.family == "taylor-hood"
        assert cfg.vorticity == "dg1"
        assert cfg.levels == 5
        assert cfg.nu0 == 0.1 and cfg.nu1 == 1.0
        assert cfg.kappa1 == pytest.approx(2.0 / 30.0)
        assert cfg.kappa2 == pytest.approx(0.05)
        assert cfg.method == "newton" and cfg.tol == 1e-8

    def test_empty_arguments_default_study(self):
        cfg = parse_config([])
        assert cfg.command == "convergence"
        assert cfg.family == "taylor-hood"
        assert cfg.levels == 5

    def test_kappa1_validation(self):
        with pytest.raises(ValueError, match="kappa1"):
            parse_config(["convergence", "--kappa1", "0.08"])  # above 2/3 * 0.1

    def test_kappa1_at_the_boundary_is_accepted(self):
        cfg = parse_config(["convergence", "--kappa1", str(2.0 / 30.0)])
        assert cfg.kappa1 == pytest.approx(2.0 / 30.0)

    def test_command_specific_vorticity_defaults(self):
        assert parse_config(["convergence"]).vorticity == "dg1"
        assert parse_config(["cavity"]).vorticity == "cg1"

    def test_command_specific_family_defaults(self):
        assert parse_config(["convergence"]).family == "taylor-hood"
        assert parse_config(["cavity"]).family == "mini"
        assert parse_config(["cavity", "--family", "mini", "--vorticity", "cg1"]).family == "mini"

    def test_round_trip(self, tmp_path):
        cfg = parse_config(
            ["cavity", "--nx", "32", "--ny", "16", "--nu0", "0.004", "--nu1", "0.008",
             "--method", "picard", "--tol", "1e-6", "--out", "results"]
        )
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        again = parse_config(["cavity", "--config", str(path)])
        assert again == cfg

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("famlly=mini\n")
        with pytest.raises(ValueError, match="famlly"):
            parse_config(["convergence", "--config", str(path)])

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("levels=3\nfamily=mini\n")
        cfg = parse_config(["convergence", "--config", str(path), "--levels", "4"])
        assert cfg.levels == 4
        assert cfg.family == "mini"


def test_sci3_format():
    assert _sci3(0.354) == "3.54e-1"
    assert _sci3(2.49e-1) == "2.49e-1"
    assert _sci3(1.01e-4) == "1.01e-4"
    assert _sci3(8.52e-1) == "8.52e-1"


class TestWriteCsv:
    def test_structure_and_format(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(fake_report(), path)
        lines = path.read_text().split("\n")
        assert lines[0] == "dof,h,e_u,r_u,e_w,r_w,e_p,r_p"
        assert lines[1] == "84,7.07e-1,8.52e-1,,5.44e-1,,2.33e-1,"
        assert lines[2] == "284,3.54e-1,2.49e-1,1.772,1.41e-1,1.948,4.64e-2,2.326"
        assert lines[3] == ""
        assert len(lines) == 4
        assert "\r" not in path.read_bytes().decode()

    def test_partial_report_comment(self, tmp_path):
        path = tmp_path / "partial.csv"
        write_csv(fake_report(partial=True), path)
        assert path.read_text().splitlines()[-1] == "# partial: level 1 non-converged"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(fake_report(), p1)
        write_csv(fake_report(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IOError):
            write_csv(fake_report(), tmp_path / "no" / "such" / "dir.csv")


class TestWriteVtk:
    def setup_method(self):
        self.mesh = build_structured(1, 1)

    def test_constant_pressure(self, tmp_path):
        space = build_space(self.mesh, "p1")
        field = interpolate(space, lambda x, y: np.ones_like(x))
        path = tmp_path / "p.vtk"
        write_vtk(self.mesh, {"pressure": field}, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert "POINT_DATA 4" in text
        assert "SCALARS pressure double 1" in text
        data = text.split("LOOKUP_TABLE default\n", 1)[1]
        assert data.splitlines() == ["1.0"] * 4

    def test_vector_field_gets_zero_third_component(self, tmp_path):
        space = build_space(self.mesh, "p2", vector=True)
        ones = interpolate(space, lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1))
        path = tmp_path / "u.vtk"
        write_vtk(self.mesh, {"velocity": ones}, path)
        text = path.read_text()
        assert "VECTORS velocity double" in text
        data = text.split("VECTORS velocity double\n", 1)[1]
        assert data.splitlines() == ["1.0 0.0 0.0"] * 4

    def test_discontinuous_fields_are_vertex_averaged(self, tmp_path):
        space = build_space(self.mesh, "dg1")
        field = DiscreteField(space, np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0]))
        path = tmp_path / "w.vtk"
        write_vtk(self.mesh, {"vorticity": field}, path)
        values = [float(v) for v in path.read_text().splitlines()[-4:]]
        assert sorted(values) == pytest.approx([1.0, 2.0, 2.0, 3.0])

    def test_cell_section_counts(self, tmp_path):
        space = build_space(self.mesh, "p1")
        field = interpolate(space, lambda x, y: x)
        path = tmp_path / "m.vtk"
        write_vtk(self.mesh, {"f": field}, path)
        lines = path.read_text().splitlines()
        ci = lines.index("CELLS 2 8")
        assert lines[ci + 1].startswith("3 ")
        assert lines[lines.index("CELL_TYPES 2") + 1] == "5"

    def test_foreign_mesh_rejected(self, tmp_path):
        other = build_structured(2, 2)
        field = interpolate(build_space(other, "p1"), lambda x, y: x)
        with pytest.raises(ValueError):
            write_vtk(self.mesh, {"f": field}, tmp_path / "x.vtk")


class TestPrintDiagnostics:
    def test_alpha_value(self, capsys):
        from vvpflow.assembly import ProblemCoefficients

        coeffs = ProblemCoefficients(
            nu=lambda x, y: np.ones_like(x),
            sigma=lambda x, y: np.ones_like(x),
            f=lambda x, y: np.zeros(np.shape(x) + (2,)),
            kappa1=0.5,
            kappa2=1.0,
            nu0=1.0,
            nu1=1.0,
            sigma0=1.0,
            sigma1=1.0,
        )
        print_diagnostics(coeffs, DiagnosticsConfig(), f_norm=0.0)
        out = capsys.readouterr().out
        assert "0.3125" in out
        assert "advisory" in out


class TestMain:
    def test_convergence_run_writes_csv(self, tmp_path):
        code = main(["convergence", "--levels", "2", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "convergence_taylor-hood.csv"
        assert out.exists()
        first = out.read_bytes()
        assert main(["convergence", "--levels", "2", "--out", str(tmp_path)]) == 0
        assert out.read_bytes() == first  # byte-identical rerun

    def test_cavity_run_writes_vtk(self, tmp_path):
        code = main(["cavity", "--nx", "16", "--ny", "8", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cavity_16x8.vtk").exists()

    def test_cavity_below_8x8_exit_code(self, tmp_path, capsys):
        assert main(["cavity", "--nx", "4", "--ny", "4", "--out", str(tmp_path)]) == 2
        assert "at least 8x8" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [["--family", "taylor-hood", "--vorticity", "dg1"], ["--family", "taylor-hood"],
                                        ["--vorticity", "dg1"]])
    def test_cavity_rejects_any_other_method(self, method, tmp_path, capsys):
        # the demo runs MINI/cg1 only: another pair must not run it under a wrong label
        assert main(["cavity", *method, "--nx", "8", "--ny", "8", "--out", str(tmp_path)]) == 2
        assert "mini/cg1 only" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cavity_validates_its_own_coefficients(self, tmp_path):
        # the cavity's nu1 is 2 nu0, not Example 1's 1.0
        assert main(["cavity", "--nu0", "2", "--nx", "8", "--ny", "8", "--out", str(tmp_path)]) == 0

    def test_diagnostics_run(self, capsys):
        assert main(["diagnostics", "--nx", "8", "--ny", "8"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_validation_error_exit_code(self, capsys):
        assert main(["convergence", "--kappa1", "0.08"]) == 2
        assert "kappa1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("tol", "inf"), ("tol", "nan"), ("kappa2", "nan"), ("kappa2", "inf"),
                                             ("nu1", "inf")])
    def test_non_finite_value_exit_code(self, flag, value, capsys):
        assert main(["convergence", "--levels", "2", f"--{flag}", value]) == 2
        assert flag in capsys.readouterr().err

    def test_bad_flag_exit_code(self):
        assert main(["convergence", "--family", "powell-sabin"]) == 2

    def test_non_convergence_exit_code(self, tmp_path):
        code = main(
            ["cavity", "--nx", "16", "--ny", "8", "--max-iters", "1", "--out", str(tmp_path)]
        )
        assert code == 3

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["convergence", "--levels", "2", "--out", str(tmp_path / "missing" / "dir")])
        assert code == 4
