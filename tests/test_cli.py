import numpy as np
import pytest

import vvpflow.cli
import vvpflow.solver
from vvpflow.cli import (
    _UNREAD,
    _sci3,
    main,
    parse_config,
    print_diagnostics,
    write_csv,
    write_vtk,
)
from vvpflow.mesh import build_structured
from vvpflow.solver import DiagnosticsConfig, SolveReport
from vvpflow.spaces import DiscreteField, build_space, interpolate
from vvpflow.verify import ConvergenceReport, coefficients_from_case, example1_case_2d, run_convergence


def fake_report(partial=False):
    # the Taylor-Hood/dg1 levels n = 2 and 4; the rates follow from the errors and h
    return ConvergenceReport(
        family="taylor-hood",
        vorticity="dg1",
        levels=[(0.5**0.5, 84), (0.125**0.5, 284)],
        errors=[(8.52e-1, 5.44e-1, 2.33e-1), (2.49e-1, 1.41e-1, 4.64e-2)],
        reports=[SolveReport(iterations=3, converged=True), SolveReport(iterations=3, converged=not partial)],
    )


class TestParseConfig:
    def test_flags_with_defaults(self):
        cfg = parse_config(["convergence", "--family", "taylor-hood", "--vorticity", "dg1", "--levels", "5"])
        assert cfg.command == "convergence"
        assert cfg.family == "taylor-hood"
        assert cfg.vorticity == "dg1"
        assert cfg.levels == 5
        assert cfg.nu0 == 0.1 and cfg.nu1 == 1.0
        assert cfg.kappa1 is None and cfg.kappa2 is None  # resolved by the library, as the runs build them
        coeffs = coefficients_from_case(example1_case_2d(nu0=cfg.nu0, nu1=cfg.nu1, perm=cfg.perm), cfg.kappa1,
                                        cfg.kappa2)
        assert coeffs.kappa1 == pytest.approx(2.0 / 30.0)
        assert coeffs.kappa2 == pytest.approx(0.05)
        assert cfg.method == "newton" and cfg.tol == 1e-8

    def test_empty_arguments_default_study(self):
        cfg = parse_config([])
        assert cfg.command == "convergence"
        assert cfg.family == "taylor-hood"
        assert cfg.levels == 5

    def test_kappa1_validation(self):
        # parsing keeps the value; the study's coefficients refuse it (above 2/3 * 0.1)
        cfg = parse_config(["convergence", "--kappa1", "0.08"])
        with pytest.raises(ValueError, match="kappa1"):
            run_convergence(cfg.family, levels=cfg.levels, kappa1=cfg.kappa1)

    def test_kappa1_at_the_boundary_is_accepted(self):
        cfg = parse_config(["convergence", "--kappa1", str(2.0 / 30.0)])
        assert cfg.kappa1 == pytest.approx(2.0 / 30.0)

    def test_command_specific_vorticity_defaults(self):
        # only the study reads a vorticity space; the cavity runs its own cg1 and takes no flag for it
        assert parse_config(["convergence"]).vorticity == "dg1"
        with pytest.raises(SystemExit):
            parse_config(["cavity", "--vorticity", "cg1"])

    def test_command_specific_family_defaults(self):
        assert parse_config(["convergence"]).family == "taylor-hood"
        with pytest.raises(SystemExit):
            parse_config(["cavity", "--family", "mini"])

    def test_round_trip(self, tmp_path):
        cfg = parse_config(
            ["cavity", "--nx", "32", "--ny", "16", "--nu0", "0.004", "--perm", "0.2",
             "--method", "picard", "--tol", "1e-6", "--out", "results"]
        )
        path = tmp_path / "run.cfg"
        path.write_text("command='cavity'\nnx=32\nny=16\nnu0=0.004\nperm=0.2\nmethod='picard'\ntol=1e-06\n"
                        "max-iters=25\nout='results'\n")
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
        assert lines[2] == "284,3.54e-1,2.49e-1,1.775,1.41e-1,1.948,4.64e-2,2.328"
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

    def test_cavity_run_writes_vtk(self, tmp_path, capsys):
        code = main(["cavity", "--nx", "16", "--ny", "8", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cavity_16x8.vtk").exists()
        assert "stopped" not in capsys.readouterr().out

    def test_a_stopped_cavity_prints_why(self, tmp_path, capsys):
        # Newton diverges at nu0 = 3e-5, and no step length rescues its fourth step
        assert main(["cavity", "--nx", "32", "--ny", "16", "--nu0", "3e-5", "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("  converged=False iterations=3 ")
        assert " step_lengths=0.25,0.25,0.25 forcing=" in lines[1]
        assert lines[2].startswith("  stopped: no step length down to 0.0625 reduces the residual at iteration 3 ")

    def test_cavity_below_8x8_exit_code(self, tmp_path, capsys):
        assert main(["cavity", "--nx", "4", "--ny", "4", "--out", str(tmp_path)]) == 2
        assert "at least 8x8" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [["--family", "taylor-hood", "--vorticity", "dg1"], ["--family", "taylor-hood"],
                                        ["--vorticity", "dg1"]])
    def test_cavity_rejects_any_other_method(self, method, tmp_path, capsys):
        # the demo runs MINI/cg1 only and takes no flag to name a pair
        assert main(["cavity", *method, "--nx", "8", "--ny", "8", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [[command, "--" + name.replace("_", "-"), "1"]
                                      for command, unread in _UNREAD.items() for name in sorted(unread)])
    def test_flag_the_command_does_not_read_exit_code(self, argv, tmp_path, capsys):
        # every field a command does not read is refused, as a flag and as a config key
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        command, flag, value = argv
        key = flag[2:].replace("-", "_")
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        assert main([command, "--config", str(path)]) == 2
        assert f"unknown key {key!r} for {command}" in capsys.readouterr().err

    def test_config_key_the_command_does_not_read_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("nx=8\nmethod=picard\n")
        assert main(["diagnostics", "--config", str(path)]) == 2
        assert "unknown key 'method' for diagnostics" in capsys.readouterr().err

    def test_config_for_another_command_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("command='cavity'\nnx=8\nny=8\n")
        assert main(["diagnostics", "--config", str(path)]) == 2
        assert "for command 'cavity', not 'diagnostics'" in capsys.readouterr().err

    def test_config_for_the_same_command_is_read(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command='diagnostics'\nnx=8\nny=8\n")
        cfg = parse_config(["diagnostics", "--config", str(path)])
        assert cfg == parse_config(["diagnostics", "--nx", "8", "--ny", "8"])

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        code = main(
            ["cavity", "--nx", "16", "--ny", "8", "--max-iters", "1", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "  stopped: no convergence in 1 iterations" in capsys.readouterr().out

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["convergence", "--levels", "2", "--out", str(tmp_path / "missing" / "dir")])
        assert code == 4


REFUSED = [
    (["plot"], "invalid choice: 'plot'"),
    (["convergence", "--levels", "1"], "at least two levels"),
    (["diagnostics", "--nx", "0"], "subdivision counts must be integers of at least 1, got 0"),
    (["diagnostics", "--ny", "-2"], "subdivision counts must be integers of at least 1, got -2"),
    (["convergence", "--perm", "0"], "perm must satisfy 0 < perm < inf, got 0.0"),
    (["convergence", "--perm", "-0.1"], "perm must satisfy 0 < perm < inf, got -0.1"),
    (["cavity", "--perm", "0"], "perm must satisfy 0 < perm < inf, got 0.0"),
    (["diagnostics", "--perm", "-0.1"], "perm must satisfy 0 < perm < inf, got -0.1"),
    (["convergence", "--kappa1", "0.08"], "kappa1 = 0.08 outside the admissible interval"),
    (["convergence", "--tol", "nan"], "tolerance must be positive and finite, got nan"),
    (["cavity", "--tol", "inf"], "tolerance must be positive and finite, got inf"),
    (["convergence", "--kappa2", "inf"], "kappa2 must be positive and finite, got inf"),
    (["convergence", "--nu1", "inf"], "viscosity bounds must satisfy 0 < nu0 <= nu1 < inf"),
    (["cavity", "--nx", "4", "--ny", "4"], "cavity resolution must be at least 8x8, got 4x4"),
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED])
def test_every_refused_input_exits_2_and_writes_nothing(argv, message, tmp_path, monkeypatch, capsys):
    # each is refused by the parser (the command) or by the library's own check, before any solve or file write
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_out_of_memory_in_a_factor_exits_3(tmp_path, monkeypatch, capsys):
    def no_memory(matrix, **opts):
        raise MemoryError

    monkeypatch.setattr(vvpflow.solver.spla, "splu", no_memory)
    assert main(["cavity", "--nx", "8", "--ny", "8", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "  stopped: sparse direct solve failed: the float32 complement: out of memory at " in captured.out
    assert "; the float64 complement: out of memory at " in captured.out
    assert "Traceback" not in captured.err


class TestConfigFile:
    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            parse_config(["convergence", "--config", str(tmp_path / "missing.cfg")])

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a study on three levels\n\n  # indented\nlevels=3\n")
        assert parse_config(["convergence", "--config", str(path)]).levels == 3

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("levels 3\n")
        with pytest.raises(ValueError, match=r"run.cfg:1: expected key=value, got 'levels 3'"):
            parse_config(["convergence", "--config", str(path)])

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# header\nlevels=three\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: bad value for 'levels': 'three'"):
            parse_config(["convergence", "--config", str(path)])

    def test_bad_value_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("tol=small\n")
        assert main(["convergence", "--config", str(path)]) == 2
        assert "bad value for 'tol'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, entry", [(["convergence", "--levels", "5"], "run_convergence"),
                                         (["cavity", "--nx", "64", "--ny", "32"], "run_cavity")])
def test_an_out_that_is_no_directory_exits_4_before_the_run(argv, entry, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before --out was checked")

    monkeypatch.setattr(vvpflow.cli, entry, no_run)
    assert main([*argv, "--out", str(tmp_path / "missing" / "dir")]) == 4
    assert "cannot write" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_diagnostics_refuses_a_non_finite_viscosity_gradient_norm(monkeypatch, capsys):
    # the config is made with the computed norm, so its own check refuses NaN before anything is printed
    monkeypatch.setattr(vvpflow.cli, "grad_nu_norm", lambda mesh, coeffs, r_star: float("nan"))
    assert main(["diagnostics", "--nx", "8", "--ny", "8"]) == 2
    captured = capsys.readouterr()
    assert "the norm grad_nu_Lrstar must be non-negative and finite, got nan" in captured.err
    assert captured.out == ""


def test_unwritable_vtk_exit_code(tmp_path, capsys):
    code = main(["cavity", "--nx", "8", "--ny", "8", "--out", str(tmp_path / "missing" / "dir")])
    assert code == 4
    assert "cannot write" in capsys.readouterr().err
