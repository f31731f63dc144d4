"""Tests of the benchmark harness itself, on toy-size workloads."""

import dataclasses
import json
import math

import pytest

import run

run._import_program()

import spans  # noqa: E402  (needs vvpflow on the path)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, trace):
    record = run.execute(name, seed=0, seconds=0.0, trace=bool(trace), toy=True)
    result = json.loads(json.dumps(record["result"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert record["spans"] and not spans.check_spans(record["spans"], record["spans"][0]["end"] - record["spans"][0]["start"])
        assert result["metrics"]["solver.fallback_solves"]["value"] == 0


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("th-newton-64", {"finest_errors": (5.81e-1, 3.29e-1, 6.73e-2)}),
        ("br-study-6", {"rate_window": (1.9, 2.1)}),
        ("br-study-6", {"max_newton": 1}),
    ],
)
def test_gate_rejects_a_wrong_reference(name, wrong):
    wl = workloads.WORKLOADS[name]
    data = workloads.problem_data(0)
    assert run._repetition(wl, data, wl.toy_size, wl.toy_gate)["gate_failures"] == []
    bad_gate = dataclasses.replace(wl.toy_gate, **wrong)
    assert run._repetition(wl, data, wl.toy_size, bad_gate)["gate_failures"]


def _patch_targets():
    import scipy.sparse.linalg as spla
    import vvpflow
    from vvpflow.assembly import SystemAssembler

    owners = (vvpflow, vvpflow.solver, vvpflow.verify, SystemAssembler, spla)
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    before = _patch_targets()
    monkeypatch.setattr(spans.Tracer, "install", refuse)
    run.execute("mini-cavity-64x32", seed=0, seconds=0.0, trace=False, toy=True)
    after = _patch_targets()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_restores_the_program():
    before = _patch_targets()
    run.execute("th-newton-64", seed=0, seconds=0.0, trace=True, toy=True)
    after = _patch_targets()
    assert all(after[k] is v for k, v in before.items())


def test_seeds_vary_the_data_within_the_stated_range():
    assert workloads.problem_data(0) == {"nu1": 1.0, "perm": 0.1, "nu0_cavity": 0.002}
    a, b = workloads.problem_data(1), workloads.problem_data(2)
    assert a == workloads.problem_data(1) and a != b
    for key, base in workloads.problem_data(0).items():
        assert abs(a[key] / base - 1.0) <= workloads.DATA_SPREAD
