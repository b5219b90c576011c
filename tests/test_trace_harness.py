"""The benchmark's traced run still sees every layer of the program.

`perfbench/run.py --trace 1` wraps the functions listed in
`perfbench/layers.py` and checks that each recorded a call and that
`model.target_gradients` ran once per History row.  A refactor that renames
or stops calling one of them makes its result incorrect; this test runs the
harness as a subprocess and reads its JSON result line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    # K, M and b factorized once each per row; the vertices located once
    assert metrics["fem.factor_calls"] == 63
    # the largest factorization is n x n (the start mesh's 495 vertices):
    # the metric is factorized as its scalar block, not at 2n
    assert metrics["fem.factor_max_dofs"] == 495
    assert metrics["model.locate_calls"] == 21
    # per row (84): the state, the adjoint, and the residual column's b
    # solve and one two-column M solve; per step (60): two K and one b
    assert metrics["fem.solve_constrained_calls"] == 144
    # the wrapped derivative layers still run once per row (the gradient)
    # or per step (the blocks), though they now share one set of element
    # terms, which no wrapper sees
    assert metrics["shape_calculus.derivative_calls"] == 21
    assert metrics["kkt.lagrangian_gradient_calls"] == 21
    assert metrics["kkt.hessian_blocks_calls"] == 20
    # the work itself: K, M and b assembled and constrained once per row,
    # the 495 vertices located once per row, and the same factor fill
    assert metrics["fem.assemble_calls"] == 63
    assert metrics["fem.dirichlet_calls"] == 63
    assert metrics["model.locate_points"] == 21 * 495
    assert metrics["fem.factor_fill_nnz"] == 719460


def test_newton_trace_does_the_same_work():
    """3 gradient and 2 Newton steps at h=0.02, 6 rows: K, M and b are
    factorized once per row, except K on the last row, which neither
    re-solves the state (it follows a Newton step) nor takes a step; the
    largest factorization is n x n; and the 2932 vertices are located once
    per row."""
    metrics = traced_metrics("newton")
    assert metrics["driver.iterations"] == 6
    assert metrics["fem.factor_calls"] == 17
    assert metrics["fem.factor_fill_nnz"] == 2106932
    assert metrics["fem.factor_max_dofs"] == 2932
    assert metrics["kkt.solve_calls"] == 5
    assert metrics["model.locate_points"] == 6 * 2932
