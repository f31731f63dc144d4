"""Command line front end: convergence studies, cavity demo, diagnostics.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .mesh import Mesh, build_structured
from .solver import METHODS, DiagnosticsConfig, NonlinearSettings, check_small_data, grad_nu_norm, lp_norm
from .spaces import STACKS, VORTICITY_SPACES, DiscreteField, vertex_values
from .verify import (
    ConvergenceReport,
    coefficients_from_case,
    div_norm,
    example1_case_2d,
    integral,
    run_cavity,
    run_convergence,
)


@dataclass
class RunConfig:
    """The parsed options of one command; the library checks each value where it is used."""

    command: str = "convergence"
    family: str = "taylor-hood"
    vorticity: str = "dg1"
    levels: int = 5
    nx: int = 64
    ny: int = 32
    nu0: float = 0.1
    nu1: float = 1.0
    kappa1: float | None = None
    kappa2: float | None = None
    perm: float = 0.1
    tol: float = 1e-8
    max_iters: int = 25
    method: str = "newton"
    out: str = field(default=".", metadata={"help": "output directory"})

    def settings(self) -> NonlinearSettings:
        return NonlinearSettings(method=self.method, tol=self.tol, max_iters=self.max_iters)


#: the fields a command does not read: it takes no flag or config key for them
_UNREAD = {"convergence": {"nx", "ny"},
           "cavity": {"family", "vorticity", "levels", "nu1", "kappa1", "kappa2"},
           "diagnostics": {"family", "vorticity", "levels", "tol", "max_iters", "method", "out"}}
_CHOICES = {"family": list(STACKS), "vorticity": list(VORTICITY_SPACES), "method": list(METHODS)}


def _value_type(f) -> type:
    """int, float or str, from the field's annotation (``float | None`` -> float)."""
    return {"int": int, "float": float}.get(f.type.partition(" ")[0], str)


def _fields(command: str) -> list:
    """The fields of RunConfig that ``command`` reads, the command itself first."""
    return [f for f in fields(RunConfig) if f.name not in _UNREAD[command]]


def _read_config_file(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    known = {f.name: f for f in _fields(command)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip("'\"")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        if key == "command" and value != command:
            raise ValueError(f"{path}:{lineno}: the file is for command {value!r}, not {command!r}")
        try:
            out[key] = _value_type(known[key])(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vvpflow", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("convergence", "manufactured-solution accuracy study"),
        ("cavity", "lid-driven wide cavity demo"),
        ("diagnostics", "small-data solvability report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value file mirroring the flags")
        for f in _fields(name)[1:]:
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_value_type(f), default=None,
                           choices=_CHOICES.get(f.name), help=f.metadata.get("help"))
    return parser


def parse_config(argv) -> RunConfig:
    """Build a RunConfig from flags and an optional config file.

    Flags override file values; file values override the defaults
    (Example-1 coefficients, Newton at tolerance 1e-8).  Only the syntax
    is checked here: each value's range is the library's to check.
    """
    args = _build_parser().parse_args(argv)
    if args.command is None:
        return RunConfig()
    overrides = {}
    if args.config:
        overrides.update(_read_config_file(args.config, args.command))
    for f in _fields(args.command)[1:]:
        value = getattr(args, f.name)
        if value is not None:
            overrides[f.name] = value
    overrides.pop("command", None)
    return RunConfig(command=args.command, **overrides)


# ---------------------------------------------------------------------------
# writers


def _sci3(x: float) -> str:
    """Scientific notation with 3 significant digits, bare exponent."""
    mantissa, _, exp = f"{x:.2e}".partition("e")
    return f"{mantissa}e{int(exp)}"


def _write_lines(path, lines) -> None:
    """Write ``lines``, newline-terminated; an ``OSError`` becomes ``IOError("cannot write ...")``."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def write_csv(report: ConvergenceReport, path) -> None:
    """Error table: header dof,h,e_u,r_u,e_w,r_w,e_p,r_p; 3 significant
    digits for errors, 3 decimals for rates, first-row rates empty."""
    lines = ["dof,h,e_u,r_u,e_w,r_w,e_p,r_p"]
    for i, ((h, dof), errs) in enumerate(zip(report.levels, report.errors)):
        rates = ("", "", "") if i == 0 else tuple(f"{r:.3f}" for r in report.rates[i - 1])
        e_u, e_w, e_p = errs
        lines.append(
            f"{dof},{_sci3(h)},{_sci3(e_u)},{rates[0]},{_sci3(e_w)},{rates[1]},{_sci3(e_p)},{rates[2]}"
        )
    if report.partial:
        bad = " ".join(str(i) for i, ok in enumerate(report.converged) if not ok)
        lines.append(f"# partial: level {bad} non-converged")
    _write_lines(path, lines)


def write_vtk(mesh: Mesh, fields_by_name: dict[str, DiscreteField], path, title: str = "vvpflow output") -> None:
    """Legacy ASCII VTK unstructured grid with vertex-sampled point data.

    Vector fields get a zero third component; fields without vertex DOFs
    (and discontinuous ones) are averaged over the incident cells.
    """
    for name, f in fields_by_name.items():
        if f.space.mesh is not mesh:
            raise ValueError(f"field {name!r} lives on a different mesh")
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r} 0.0")
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for a, b, c in mesh.cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    for name, f in fields_by_name.items():
        vals = vertex_values(f)
        if f.space.vector:
            lines.append(f"VECTORS {name} double")
            for vx, vy in vals:
                lines.append(f"{float(vx)!r} {float(vy)!r} 0.0")
        else:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            for v in vals:
                lines.append(f"{float(v)!r}")
    _write_lines(path, lines)


def print_diagnostics(coeffs, diag: DiagnosticsConfig, f_norm: float, file=None) -> None:
    """Human-readable small-data report; advisory, never fatal."""
    file = file or sys.stdout
    rep = check_small_data(coeffs, diag, f_norm)
    print("small-data solvability diagnostics (advisory)", file=file)
    print(f"  kappa           = {rep.kappa:.6g}", file=file)
    print(f"  min term        = {rep.min_term:.6g}", file=file)
    print(f"  subtrahend      = {rep.subtrahend:.6g}", file=file)
    print(f"  alpha           = {rep.alpha:.6g}", file=file)
    print(f"  alpha_bar       = {rep.alpha_bar:.6g}", file=file)
    print(f"  ellipticity ok  = {rep.ellipticity_ok}", file=file)
    print(f"  delta ok        = {rep.delta_ok}  (delta = {diag.delta:.6g} vs limit {rep.delta_limit:.6g})", file=file)
    print(f"  data smallness  = {rep.data_ok}  (||f|| = {f_norm:.6g} vs bound {rep.f_bound:.6g})", file=file)
    print("  note: C_r and C_4 are user-supplied estimates; the conditions are sufficient only", file=file)


# ---------------------------------------------------------------------------
# entry point


def _run_convergence(cfg: RunConfig) -> int:
    report = run_convergence(
        cfg.family,
        levels=cfg.levels,
        case=example1_case_2d(nu0=cfg.nu0, nu1=cfg.nu1, perm=cfg.perm),
        vorticity=cfg.vorticity,
        settings=cfg.settings(),
        kappa1=cfg.kappa1,
        kappa2=cfg.kappa2,
    )
    out = Path(cfg.out) / f"convergence_{cfg.family}.csv"
    write_csv(report, out)
    print(f"wrote {out}")
    for i, ((h, dof), errs) in enumerate(zip(report.levels, report.errors)):
        rates = ("--",) * 3 if i == 0 else tuple(f"{r:.3f}" for r in report.rates[i - 1])
        print(
            f"  dof={dof:>7d} h={h:.3f} e_u={_sci3(errs[0])} ({rates[0]}) "
            f"e_w={_sci3(errs[1])} ({rates[1]}) e_p={_sci3(errs[2])} ({rates[2]})"
        )
    return 3 if report.partial else 0


def _run_cavity(cfg: RunConfig) -> int:
    fields_by_name, rep = run_cavity(
        nx=cfg.nx, ny=cfg.ny, nu0=cfg.nu0, perm=cfg.perm, settings=cfg.settings()
    )
    mesh = fields_by_name["velocity"].space.mesh
    out = Path(cfg.out) / f"cavity_{cfg.nx}x{cfg.ny}.vtk"
    write_vtk(mesh, fields_by_name, out, title="lid-driven wide cavity")
    p_int = integral(fields_by_name["pressure"])
    print(f"wrote {out}")
    print(
        f"  converged={rep.converged} iterations={rep.iterations} "
        f"residual={rep.residual_history[-1]:.3e} step_lengths={','.join(f'{s:g}' for s in rep.step_lengths) or '-'} "
        f"forcing={','.join(f'{eta:.2g}' for eta in rep.forcing) or '-'}"
    )
    if not rep.converged:
        print(f"  stopped: {rep.failure}")
    print(f"  pressure integral = {p_int:.3e}")
    print(f"  ||div u_h|| = {div_norm(fields_by_name['velocity']):.3e}")
    return 0 if rep.converged else 3


def _run_diagnostics(cfg: RunConfig) -> int:
    case = example1_case_2d(nu0=cfg.nu0, nu1=cfg.nu1, perm=cfg.perm)
    coeffs = coefficients_from_case(case, kappa1=cfg.kappa1, kappa2=cfg.kappa2)
    mesh = build_structured(cfg.nx, cfg.ny, case.rect)
    diag = DiagnosticsConfig()
    diag = replace(diag, grad_nu_Lrstar=grad_nu_norm(mesh, coeffs, diag.r_star))  # checked as it is made
    print_diagnostics(coeffs, diag, lp_norm(mesh, case.f, 2.0, quad_degree=10))
    return 0


_RUNS = {"convergence": _run_convergence, "cavity": _run_cavity, "diagnostics": _run_diagnostics}


def main(argv=None) -> int:
    """Run one command; a ``ValueError`` from parsing or the library's checks exits 2, and an
    ``--out`` that is not a directory 4, each before any solve or file write."""
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        if not Path(cfg.out).is_dir():
            raise IOError(f"cannot write {cfg.out}: not an existing directory")
        return _RUNS[cfg.command](cfg)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
