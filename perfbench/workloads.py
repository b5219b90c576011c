"""Benchmark workloads: seeded inputs, set-up, the timed call and its checks.

Each workload turns the benchmark seed into a start circle, builds what a
user pays for before the solver starts (``setup``), runs one timed call of
``driver.run_two_phase`` (``call``) and lists what is wrong with that call's
output (``check``; an empty list means correct).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from deformopt import driver, mesh, model, verify

DEFAULT_SEED = verify.DEFAULT_SEED
REFERENCE = Path(__file__).with_name("reference.json")
# relative tolerance on the History float columns against reference.json
REFERENCE_RTOL = 1e-8
# the start circle is drawn from circle (0.5 +- 0.01, 0.5 +- 0.01) r 0.2 +- 0.01
CIRCLE_CENTRE, CIRCLE_RADIUS, CIRCLE_JITTER = (0.5, 0.5), 0.2, 0.01
HISTORY_FIELDS = ("k", "objective", "grad_norm", "residual", "step", "mode",
                  "invertibility_margin")


def start_circle(seed):
    rng = np.random.default_rng(seed)
    dx, dy, dr = rng.uniform(-CIRCLE_JITTER, CIRCLE_JITTER, 3)
    return mesh.InclusionShape.circle(
        (CIRCLE_CENTRE[0] + float(dx), CIRCLE_CENTRE[1] + float(dy)),
        CIRCLE_RADIUS + float(dr))


def history_rows(history):
    return [[getattr(r, f) for f in HISTORY_FIELDS] for r in history.records]


@dataclass(frozen=True)
class OptimizeWorkload:
    """``driver.run_two_phase`` from a seeded start circle."""

    name: str
    mesh_h: float
    target_h: float
    n_gradient_iters: int
    max_iters: int

    @property
    def schedule(self):
        """Defaults otherwise: Newton full steps, eps1 = 3e-2."""
        return driver.Schedule(n_gradient_iters=self.n_gradient_iters,
                               max_iters=self.max_iters)

    def setup(self, seed):
        """Mesh, target (background mesh plus its solve), built locator."""
        m = mesh.generate_mesh(start_circle(seed), self.mesh_h)
        target = model.make_target(model.ProblemConfig(), self.target_h)
        target.locate(m.vertices[:1])        # forces the lazy locator build
        return m, target

    def call(self, inputs):
        m, target = inputs
        return driver.run_two_phase(m, model.ProblemConfig(), target,
                                    self.schedule)

    def check(self, result, seed):
        _, history = result
        problems = [f"abort note: {n}" for n in history.notes
                    if "aborted" in n]
        j = history.column("objective")
        if not j[-1] < j[0]:
            problems.append(f"objective did not decrease: {j[0]!r} -> {j[-1]!r}")
        if seed == DEFAULT_SEED:
            problems += self._against_reference(history)
        return problems

    def _against_reference(self, history):
        ref = json.loads(REFERENCE.read_text())[self.name]
        rows = history_rows(history)
        if len(rows) != len(ref["rows"]) or history.notes != ref["notes"]:
            return [f"history shape or notes differ from {REFERENCE.name}"]
        problems = []
        for row, want in zip(rows, ref["rows"]):
            for f, got, exp in zip(HISTORY_FIELDS, row, want):
                same = got == exp if isinstance(exp, str) else \
                    abs(got - exp) <= REFERENCE_RTOL * abs(exp)
                if not same:
                    problems.append(f"iteration {row[0]} {f}: {got!r} != "
                                    f"reference {exp!r}")
        return problems

    def fingerprint(self, result):
        m, history = result
        return (repr(history_rows(history)), tuple(history.notes),
                m.vertices.tobytes())

    def describe(self, seed):
        c = start_circle(seed)
        return (f"run_two_phase from circle {c.center[0]:.6f} "
                f"{c.center[1]:.6f} {c.semi_axes[0]:.6f}, mesh h="
                f"{self.mesh_h}, target h={self.target_h}, "
                f"{self.n_gradient_iters} gradient + "
                f"{self.max_iters - self.n_gradient_iters} Newton iterations")


WORKLOADS = {
    w.name: w for w in [
        OptimizeWorkload("warmup", mesh_h=0.05, target_h=0.025,
                         n_gradient_iters=20, max_iters=20),
        OptimizeWorkload("newton", mesh_h=0.02, target_h=0.01,
                         n_gradient_iters=3, max_iters=5),
    ]
}


def history_counts(history):
    """Counts the driver records in its notes; a change should not move them."""
    notes = history.notes
    return {
        "driver.iterations": len(history.records),
        "driver.newton_fallbacks": sum("gradient fallback" in n for n in notes),
        "driver.step_halvings": sum(
            int(m.group(1)) for n in notes
            for m in [re.search(r"step halved (\d+)x", n)] if m),
        "driver.aborts": sum("aborted" in n for n in notes),
    }
