"""Benchmark of the vvpflow steady solve: one workload per process.

    python3 bench/run.py --workload th-newton-64 --seed 0 --seconds 20 --trace 0

Run it from the root of a source tree; it imports vvpflow from ``src/``.
With ``--trace 0`` it times whole repetitions of the workload for about
``--seconds`` seconds (at least one) and prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced repetition, then one traced
repetition whose spans give the per-layer metrics and the tracing
overhead.  Every repetition passes through the correctness gate in
``workloads.py``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment.  The full record, spans included, is written to
``.bench_out/`` in the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 31
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _import_program():
    """Put the tree's ``src/`` first on the path and check vvpflow comes from it."""
    src = ROOT / "src"
    if not (src / "vvpflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no vvpflow sources under {src}; run from a full source tree")
    sys.path.insert(0, str(src))
    import vvpflow

    if Path(vvpflow.__file__).resolve().parent != (src / "vvpflow").resolve():
        raise SystemExit(f"bench: imported vvpflow from {vvpflow.__file__}, not from {src}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _repetition(workload, data, size, gate):
    """One whole workload: set-up, solves and norms, then the gate."""
    from workloads import gate_failures

    t0 = time.perf_counter()
    state = workload.setup(data, size)
    t1 = time.perf_counter()
    outcome = workload.solve(state)
    t2 = time.perf_counter()
    return {
        "wall_s": t2 - t0,
        "setup_s": t1 - t0,
        "solve_s": outcome.solve_s,
        "accuracy": outcome.accuracy,
        "newton_steps": [rep.iterations for _, rep in outcome.solves],
        "rates": outcome.rates,
        "gate_failures": gate_failures(outcome, gate),
    }


def execute(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload and return the full record (metrics, reps, spans)."""
    from workloads import WORKLOADS, problem_data

    workload = WORKLOADS[name]
    size = workload.toy_size if toy else workload.size
    gate = workload.toy_gate if toy else workload.gate
    data = problem_data(seed)

    def time_setups(count):
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            workload.setup(data, size)
            out.append(time.perf_counter() - t0)
        return out

    # Set-up takes tens of milliseconds, shorter than the machine's slow
    # phases, so it is sampled both before and after the solves; the
    # samples before also warm lazy imports.
    setups = time_setups(SETUP_REPEATS // 2)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(_repetition(workload, data, size, gate))
        elapsed = time.perf_counter() - start
        if trace or elapsed + reps[-1]["wall_s"] > seconds:
            break
    setups += [r["setup_s"] for r in reps] + time_setups(SETUP_REPEATS // 2)

    record = {
        "workload": name,
        "toy": toy,
        "data": data,
        "environment": environment(seed),
        "setups_s": setups,
        "repetitions": reps,
    }
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("workload"):
                traced = _repetition(workload, data, size, gate)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        problems = spans.check_spans(tracer.spans, traced_wall)
        if problems:
            raise RuntimeError("unsound span tree: " + "; ".join(problems))
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead"] = (traced_wall / reps[0]["wall_s"], "ratio")
        reps.append(traced)
        record["spans"] = tracer.spans
    else:
        first = reps[0]["accuracy"]
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(r["solve_s"] for r in reps), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **{k: (v, "norm") for k, v in first.items()},
        }
    failed = sum(1 for r in reps if r["gate_failures"])
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for rep in record["repetitions"]:
        for problem in rep["gate_failures"]:
            print(f"gate: {problem}", file=sys.stderr)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
