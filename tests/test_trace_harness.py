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


def test_warmup_trace_is_correct_with_one_operator_set_per_row():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warmup",
         "--seed", "2024", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
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
