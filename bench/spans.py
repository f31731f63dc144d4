"""Spans recorded from outside the solver, by wrapping module attributes.

A traced run replaces a fixed list of vvpflow functions and methods (and
scipy's ``splu``, as the solver calls it) with wrappers that record one
span per call: name, start, end, parent and a few attributes.  Spans are
kept in memory; ``layer_metrics`` turns them into per-layer figures and
``check_spans`` verifies that they nest and account for the traced time.
An untraced run never constructs a ``Tracer``, so it runs the program's
own functions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import vvpflow
import vvpflow.solver
from vvpflow.assembly import SystemAssembler


class Tracer:
    """In-memory span recorder that installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        # a boundary the program no longer has records no spans (metric 0)
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                if before is not None:
                    before(attrs, args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def install(self):
        """Wrap the layer boundaries; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        w = self._wrap
        w(vvpflow, "build_structured", "mesh.build")
        w(vvpflow, "method_spaces", "spaces.build")
        w(vvpflow, "solve_newton", "solver.newton", after=_newton_attrs)
        w(vvpflow, "error_norms", "verify.norms")
        w(vvpflow, "div_norm", "verify.norms")
        w(vvpflow.verify, "integral", "verify.norms")
        w(vvpflow.verify, "l2_error", "verify.norms")
        w(SystemAssembler, "__init__", "assembly.init", after=_init_attrs)
        w(SystemAssembler, "_ensure_linear", "assembly.linear")
        w(SystemAssembler, "_convection", "assembly.convection")
        w(SystemAssembler, "oseen", "assembly.oseen", after=_oseen_attrs)
        w(SystemAssembler, "gram_x", "assembly.gram")
        w(SystemAssembler, "_elimination_order", "ordering.nested_dissection", before=_order_attrs)
        w(vvpflow.solver, "apply_dirichlet", "assembly.dirichlet")
        w(vvpflow.solver, "solve_linear", "solver.linear")
        w(vvpflow.solver, "_velocity_norm", "solver.velocity_norm")
        self._wrap_splu()

    def _wrap_splu(self):
        original = spla.splu
        tracer = self

        def splu(*args, **kwargs):
            with tracer.span("solver.factor") as attrs:
                attrs["permc_spec"] = kwargs.get("permc_spec", "COLAMD")
                lu = original(*args, **kwargs)
                attrs["nnz"] = int(lu.nnz)
                attrs["solves"] = 0
            return _TracedLU(lu, attrs, tracer)

        spla.splu = splu
        self._saved.append((spla, "splu", original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TracedLU:
    """SuperLU stand-in whose triangular solves are spans of their own."""

    def __init__(self, lu, attrs: dict, tracer: Tracer):
        self._lu = lu
        self._attrs = attrs
        self._tracer = tracer
        self.nnz = lu.nnz

    def solve(self, rhs, *args):
        self._attrs["solves"] += 1
        with self._tracer.span("solver.triangular_solve"):
            return self._lu.solve(rhs, *args)


def _newton_attrs(attrs, args, kwargs, result):
    attrs["iterations"] = result[3].iterations


def _init_attrs(attrs, args, kwargs, result):
    attrs["quad_points"] = len(args[0].rule.weights)


def _oseen_attrs(attrs, args, kwargs, result):
    asm = args[0]
    linear = getattr(asm, "_linear", None)
    if linear is None:
        return
    entries = sum(len(t[0]) for t in linear[0].values())
    if kwargs.get("conv_triplets") is not None:
        entries += len(kwargs["conv_triplets"][0])
    elif kwargs.get("beta", args[1] if len(args) > 1 else None) is not None:
        entries += asm.V.cell_dofs.size * asm.V.cell_dofs.shape[1]
    attrs["coo_entries"] = entries


def _order_attrs(attrs, args, kwargs):
    attrs["computed"] = getattr(args[0], "_ordering", None) is None


# ---------------------------------------------------------------- analysis


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            kids[s["parent"]].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part covered by its child spans."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        covered = sum(spans[k]["end"] - spans[k]["start"] for k in kids[i])
        out.append(s["end"] - s["start"] - covered)
    return out


def check_spans(spans, traced_wall: float) -> list[str]:
    """Problems with the span tree; an empty list means it is sound.

    Children must lie inside their parent and not overlap each other,
    self times must be non-negative, and the self times of all spans must
    add up to the traced wall time (the root spans cover the whole run).
    """
    problems = []
    kids = _children(spans)
    for i, s in enumerate(spans):
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {i} ({s['name']}) never closed or ends before it starts")
            continue
        prev_end = s["start"]
        for k in kids[i]:
            c = spans[k]
            if c["start"] < prev_end or c["end"] > s["end"]:
                problems.append(f"span {k} ({c['name']}) leaves its parent {i} ({s['name']}) or overlaps a sibling")
            prev_end = c["end"]
    if problems:
        return problems
    st = self_times(spans)
    negative = [i for i, t in enumerate(st) if t < 0.0]
    if negative:
        problems.append(f"negative self time on spans {negative[:5]}")
    total = sum(st)
    if abs(total - traced_wall) > 1e-3 * traced_wall + 1e-3:
        problems.append(f"self times sum to {total:.6f} s but the traced wall time is {traced_wall:.6f} s")
    return problems


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer figures, by metric name, as (value, unit)."""
    st = self_times(spans)
    kids = _children(spans)

    def self_s(name):
        return float(sum(t for s, t in zip(spans, st) if s["name"] == name))

    def named(name):
        return [s for s in spans if s["name"] == name]

    factors = named("solver.factor")
    nd = small = fallback = 0
    for i, s in enumerate(spans):
        if s["name"] != "solver.linear":
            continue
        calls = [spans[k]["attrs"]["permc_spec"] for k in kids[i] if spans[k]["name"] == "solver.factor"]
        if len(calls) > 1:
            fallback += 1
        elif calls == ["NATURAL"]:
            nd += 1
        else:
            small += 1
    nd_attempts = nd + fallback
    return {
        "assembly.convection_s": (self_s("assembly.convection"), "s"),
        "assembly.convection_calls": (len(named("assembly.convection")), "count"),
        "assembly.linear_s": (self_s("assembly.linear"), "s"),
        "assembly.init_s": (self_s("assembly.init"), "s"),
        "assembly.quad_points": (max((s["attrs"].get("quad_points", 0) for s in named("assembly.init")), default=0), "count"),
        "assembly.csr_s": (self_s("assembly.oseen"), "s"),
        "assembly.coo_entries": (max((s["attrs"].get("coo_entries", 0) for s in named("assembly.oseen")), default=0), "count"),
        "assembly.dirichlet_s": (self_s("assembly.dirichlet"), "s"),
        "assembly.gram_s": (self_s("assembly.gram"), "s"),
        "ordering.nested_dissection_s": (self_s("ordering.nested_dissection"), "s"),
        "ordering.calls": (sum(s["attrs"]["computed"] for s in named("ordering.nested_dissection")), "count"),
        "solver.factor_s": (self_s("solver.factor"), "s"),
        "solver.factor_calls": (len(factors), "count"),
        "solver.lu_nnz": (max((s["attrs"].get("nnz", 0) for s in factors), default=0), "count"),
        "solver.triangular_s": (self_s("solver.triangular_solve"), "s"),
        "solver.refine_steps": (sum(max(0, s["attrs"].get("solves", 0) - 1) for s in factors), "count"),
        "solver.linear_self_s": (self_s("solver.linear"), "s"),
        "solver.nd_solves": (nd, "count"),
        "solver.small_direct_solves": (small, "count"),
        "solver.fallback_solves": (fallback, "count"),
        "solver.nd_success_ratio": (nd / nd_attempts if nd_attempts else 1.0, "ratio"),
        "solver.newton_steps": (sum(s["attrs"]["iterations"] for s in named("solver.newton")), "count"),
        "solver.loop_self_s": (self_s("solver.newton"), "s"),
        "solver.velocity_norm_s": (self_s("solver.velocity_norm"), "s"),
        "mesh.build_s": (self_s("mesh.build"), "s"),
        "spaces.build_s": (self_s("spaces.build"), "s"),
        "verify.norms_s": (self_s("verify.norms"), "s"),
    }
