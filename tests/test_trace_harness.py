"""The benchmark's traced run still sees every layer of the program.

`perfbench/run.py --trace 1` wraps the functions listed in
`perfbench/layers.py` and checks that each recorded a call and that
`model.target_gradients` ran once per History row.  A refactor that renames
or stops calling one of them makes its result incorrect; this test runs the
harness as a subprocess and reads its JSON result line.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_layer_resolves(monkeypatch):
    """Each (module, attribute) that `perfbench/layers.py` wraps exists in
    `deformopt`, a method on its class itself as the wrapper looks it up,
    so a rename fails here at once, not only in the traced runs below."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # for its dataclasses
    spec.loader.exec_module(layers)
    for module_name, attr, _ in layers.LAYERS:
        owner = importlib.import_module(f"deformopt.{module_name}")
        *cls, name = attr.split(".")
        if cls:
            owner = vars(getattr(owner, cls[0]))
            assert name in owner, (module_name, attr)
        else:
            assert callable(getattr(owner, name, None)), (module_name, attr)


def traced_metrics(workload):
    """Per-layer metric values of `run.py --trace 1` on the default seed,
    after checking that the run reports `correct`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2024", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_warmup_trace_is_correct_with_one_operator_set_per_row():
    metrics = traced_metrics("warmup")
    assert metrics["driver.iterations"] == 21
    # K and b factorized once each per row (M is solved by Chebyshev and
    # never factorized); the vertices located once
    assert metrics["fem.factor_calls"] == 42
    # the largest factorization is K's free block: the start mesh's 495
    # vertices less the 42 on the bottom and the top (the metric is
    # factorized as its scalar block, not at 2n)
    assert metrics["fem.factor_max_dofs"] == 453
    assert metrics["model.locate_calls"] == 21
    # per row (63): the state, the adjoint, and the residual column's b
    # solve; per step (60): two K and one b
    assert metrics["fem.solve_constrained_calls"] == 123
    # the wrapped derivative layers still run once per row (the gradient)
    # or per step (the blocks), though they now share one set of element
    # terms, which no wrapper sees
    assert metrics["shape_calculus.derivative_calls"] == 21
    assert metrics["kkt.lagrangian_gradient_calls"] == 21
    assert metrics["kkt.hessian_blocks_calls"] == 20
    # the work itself: K, M and b assembled and restricted to their free
    # blocks once per row, the 495 vertices located once per row, and the
    # same factor fill
    assert metrics["fem.assemble_calls"] == 63
    assert metrics["fem.dirichlet_calls"] == 63
    assert metrics["model.locate_points"] == 21 * 495
    assert metrics["fem.factor_fill_nnz"] == 464898


def test_newton_trace_does_the_same_work():
    """3 gradient and 2 Newton steps at h=0.02, 6 rows: K and b are
    factorized once per row, except K on the last row, which neither
    re-solves the state (it follows a Newton step) nor takes a step; the
    largest factorization is K's free block (2830 of the 2932 vertices);
    and the 2932 vertices are located once per row."""
    metrics = traced_metrics("newton")
    assert metrics["driver.iterations"] == 6
    assert metrics["fem.factor_calls"] == 11
    assert metrics["fem.factor_fill_nnz"] == 1344608
    assert metrics["fem.factor_max_dofs"] == 2830
    assert metrics["kkt.solve_calls"] == 5
    # 138 less the 37 preconditioner solves of the two Newton steps' MINRES,
    # which solve b_s's free block directly (`solve_free`), not through
    # the wrapped `solve_constrained`: their time is `kkt.solve`'s own
    assert metrics["fem.solve_constrained_calls"] == 101
    assert metrics["model.locate_points"] == 6 * 2932
