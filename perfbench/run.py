"""deformopt benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {warmup,newton} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the run repeats set-up and then the workload's timed call
until ``--seconds`` is used up, and reports the end-to-end metrics
(``setup_s`` and ``run_s`` as medians, ``peak_rss_mb`` of this process).
With ``--trace 1`` it makes a traced, an untraced and a second traced call
(every layer wrapped, see ``layers.py``) and reports the per-layer metrics.
Every call's output is checked; the last stdout line is the JSON result.
"""

import os

# pin BLAS threads before numpy is imported: the reference machine has 2
# cores shared with other tenants, and one thread keeps timings comparable
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# before each timed call: at least this many set-ups, and more until the
# batch has taken SETUP_BATCH_S seconds
SETUP_REPEATS, SETUP_BATCH_S = 2, 0.5

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# layers (span names) reported with inclusive time and call count
LAYER_NAMES = ["mesh.invertibility", "fem.assemble", "fem.dirichlet",
               "fem.solve_constrained", "fem.factor", "model.locate",
               "model.transfer", "model.target_gradients", "model.state_solve",
               "model.adjoint_solve", "shape_calculus.derivative",
               "shape_calculus.metric", "kkt.assemble", "kkt.hessian_blocks",
               "kkt.lagrangian_gradient", "kkt.solve", "driver.dual_norms"]
# layers that call other wrapped layers: self time too
WITH_CHILDREN = ["fem.solve_constrained", "model.transfer",
                 "model.target_gradients", "model.state_solve",
                 "model.adjoint_solve", "shape_calculus.derivative",
                 "shape_calculus.metric", "kkt.assemble", "kkt.hessian_blocks",
                 "kkt.lagrangian_gradient", "kkt.solve", "driver.dual_norms"]
# counts that must repeat exactly between two traced calls
EXACT = [f"{name}_calls" for name in LAYER_NAMES] + [
    "model.locate_points", "mesh.invertibility_ok_ratio",
    "fem.factor_fill_nnz", "fem.factor_max_dofs", "driver.iterations",
    "driver.newton_fallbacks", "driver.step_halvings", "driver.aborts"]


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}_ms"] = "ms"
        if name in WITH_CHILDREN:
            units[f"{name}_self_ms"] = "ms"
        units[f"{name}_calls"] = "count"
    units.update({
        "model.locate_points": "count",
        "model.locator_build_ms": "ms",
        "mesh.generate_ms": "ms",
        "mesh.invertibility_ok_ratio": "ratio",
        "fem.factor_fill_nnz": "count",
        "fem.factor_max_dofs": "count",
        "driver.gradient_iter_ms": "ms",
        "driver.newton_iter_ms": "ms",
        "driver.iterations": "count",
        "driver.newton_fallbacks": "count",
        "driver.step_halvings": "count",
        "driver.aborts": "count",
        "trace.run_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_ms": "ms",
    })
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import deformopt from this checkout's src/, or exit with code 1."""
    if not (SRC / "deformopt" / "__init__.py").is_file():
        sys.exit(f"error: no deformopt sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import deformopt
    if Path(deformopt.__file__).resolve().parent != SRC / "deformopt":
        sys.exit(f"error: imported deformopt from {deformopt.__file__}")


def check_benchmark_json(units, key):
    """The metric names in BENCHMARK.json must be the ones this run prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec[key]}
    if listed != units:
        sys.exit(f"error: BENCHMARK.json {key} does not match run.py: "
                 f"{sorted(set(listed.items()) ^ set(units.items()))}")


def call(workload, inputs, span=None):
    """Run the timed call; (result, or None if it raised; seconds)."""
    t0 = time.perf_counter()
    try:
        with span or nullcontext():
            result = workload.call(inputs)
    except Exception:                 # a raising call is a failed run
        traceback.print_exc()
        result = None
    return result, time.perf_counter() - t0


def problems_of(workload, result, seed):
    if result is None:
        return ["the call raised"]
    return workload.check(result, seed)


def measure(workload, seed, seconds):
    """Untraced: cycles of set-up repeats and one timed call until `seconds`
    is used, so both kinds of sample spread over the whole run."""
    deadline = time.perf_counter() + seconds
    setup_times, run_times, cycle_times = [], [], []
    failed, problems, first = 0, [], None
    while True:
        cycle_start = time.perf_counter()
        for repeat in itertools.count(1):
            inputs = None                    # one set of inputs alive at a time
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            if repeat >= SETUP_REPEATS and \
                    time.perf_counter() - cycle_start >= SETUP_BATCH_S:
                break
        result, dt = call(workload, inputs)
        run_times.append(dt)
        found = problems_of(workload, result, seed)
        if result is not None:
            fingerprint = workload.fingerprint(result)
            first = fingerprint if first is None else first
            if fingerprint != first:
                found.append("a repeated call gave a different result")
        failed += bool(found)
        problems += found
        cycle_times.append(time.perf_counter() - cycle_start)
        if time.perf_counter() + statistics.median(cycle_times) > deadline:
            break
    print("# set-up s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("# call s: " + " ".join(f"{t:.4f}" for t in run_times))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(run_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(run_times), failed, problems


def layer_metrics(recorder, run_id, history, units):
    """Per-layer values of one traced call; set-up layers from 'setup'."""
    from layers import aggregate, root
    from workloads import history_counts
    agg = aggregate(recorder, run_id)
    out = {k: 0 if u == "count" else 0.0 for k, u in units.items()}
    for name in LAYER_NAMES:
        if name not in agg:
            continue
        out[f"{name}_ms"] = agg[name].total_ns / 1e6
        out[f"{name}_calls"] = agg[name].calls
        if name in WITH_CHILDREN:
            out[f"{name}_self_ms"] = agg[name].self_ns / 1e6
    if "model.locate" in agg:
        out["model.locate_points"] = sum(
            i["points"] for i in agg["model.locate"].info)
    if "fem.factor" in agg:
        infos = agg["fem.factor"].info
        out["fem.factor_fill_nnz"] = sum(i["fill_nnz"] for i in infos)
        out["fem.factor_max_dofs"] = max(i["dofs"] for i in infos)
    if "mesh.invertibility" in agg:
        infos = agg["mesh.invertibility"].info
        out["mesh.invertibility_ok_ratio"] = sum(i["ok"] for i in infos) / len(infos)
    setup = aggregate(recorder, "setup")
    out["mesh.generate_ms"] = setup["mesh.generate"].self_ns / 1e6
    out["model.locator_build_ms"] = setup["model.locate"].total_ns / 1e6
    top = root(recorder, run_id)
    out["trace.run_s"] = top.duration / 1e9
    out["trace.unattributed_ms"] = top.self_ns / 1e6
    out.update(history_counts(history))
    out.update(_iteration_ms(recorder, run_id, top, history))
    return out


def _iteration_ms(recorder, run_id, top, history):
    """Median wall ms per iteration by mode.  An iteration starts at its
    target_gradients call; the final evaluation row takes no step and is
    left out."""
    starts = [s.start for s in recorder.spans
              if s.run == run_id and s.name == "model.target_gradients"]
    if len(starts) != len(history.records):
        raise RuntimeError("iteration boundaries do not match the history")
    bounds = starts + [top.end]
    per_mode = {"gradient": [], "newton": []}
    for rec, a, b in zip(history.records[:-1], bounds, bounds[1:]):
        per_mode[rec.mode].append((b - a) / 1e6)
    return {f"driver.{mode}_iter_ms": statistics.median(v) if v else 0.0
            for mode, v in per_mode.items()}


def self_checks(workload, first, second, fingerprints):
    problems = [f"layer {name} recorded no call" for name in LAYER_NAMES
                if first[f"{name}_calls"] < 1]
    phase = "newton" if workload.max_iters > workload.n_gradient_iters \
        else "gradient"
    if first[f"driver.{phase}_iter_ms"] <= 0:
        problems.append(f"no {phase} iteration was timed")
    problems += [f"count {k} differs between traced calls: {first[k]} vs "
                 f"{second[k]}" for k in EXACT if first[k] != second[k]]
    if len(set(fingerprints)) != 1:
        problems.append("traced and untraced calls gave different results")
    return problems


def trace(workload, seed, units):
    """A traced call, an untraced call, a second traced call.

    The per-layer values come from the second traced call, which like the
    untraced one runs after a first call has warmed the process up; the
    first traced call gives the counts that must repeat.
    """
    from layers import Recorder, patched
    recorder = Recorder()
    with patched(recorder), recorder.run("setup"):
        inputs = workload.setup(seed)
    results, times = [], []
    for run_id in ("run1", None, "run2"):
        with patched(recorder) if run_id else nullcontext():
            result, dt = call(workload, inputs,
                              recorder.run(run_id) if run_id else None)
        results.append(result)
        times.append(dt)
    failed, problems = 0, []
    for result in results:
        found = problems_of(workload, result, seed)
        failed += bool(found)
        problems += found
    if failed:
        return {}, len(results), failed, problems
    first, metrics = [layer_metrics(recorder, run_id, result[1], units)
                      for run_id, result in (("run1", results[0]),
                                             ("run2", results[2]))]
    problems += self_checks(workload, first, metrics,
                            [workload.fingerprint(r) for r in results])
    metrics["trace.overhead_s"] = times[2] - times[1]
    print("# traced, untraced, traced call s: "
          + " ".join(f"{t:.4f}" for t in times))
    return metrics, len(results), failed, problems


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    check_benchmark_json(units, "per_layer" if args.trace else "end_to_end")
    print(f"# workload {workload.name}: {workload.describe(args.seed)}")
    print(f"# BLAS threads pinned to {BLAS_THREADS} "
          f"(OMP/OPENBLAS/MKL_NUM_THREADS); cpu_count={os.cpu_count()}")
    if args.trace:
        metrics, attempted, failed, problems = trace(workload, args.seed, units)
    else:
        metrics, attempted, failed, problems = measure(
            workload, args.seed, args.seconds)
    for p in problems:
        print(f"# FAILED CHECK: {p}")
    for name, value in metrics.items():
        print(f"# {name:36s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
