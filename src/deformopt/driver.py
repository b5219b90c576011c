"""The deformation loop: one iteration, a gradient and a Newton step rule.

The first `n_gradient_iters` iterations are a projected gradient warm-up:
the state and adjoint are re-solved at each iterate, the reduced KKT
system is solved (V is the b-Riesz gradient) and the fixed step
`gradient_step` is taken.  The later iterations are one-shot Newton steps
on the full system, which fall back to the gradient rule on the same
system when that solve fails.  Steps are halved until the mesh stays
invertible.  An iterate's stages run in the order transfer, state, norms
(the residual column), step; any of them that fails (`STAGE_ERRORS`) ends
the run with the note `aborted at iteration k (<stage>): <error>`, and a
failed step still records its row, with step 0.
Each iterate builds one `model.OperatorSet`, on the run's one set of CSR
patterns, forms M (u - z) once, for the adjoint's load, the objective and
the element terms, and builds one set of element terms, which the gradient
and the KKT system read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, kkt, model, shape_calculus
from .mesh import (Mesh, NonInvertibleDeformation, apply_deformation,
                   check_invertibility)

MAX_HALVINGS = 30      # step halvings before a step is given up
# how a stage fails; anything else, a `fem.FemError` say, is a bug and raises
STAGE_ERRORS = (fem.SingularSystemError, model.PointOutsideMesh,
                NonInvertibleDeformation)


@dataclass(frozen=True)
class Schedule:
    """Iteration schedule and regularization knobs.  The gradient rule
    takes `gradient_step` and the Newton rule the full step t = 1, each
    halved only until the mesh stays invertible.  The metric b of (eps1,
    eps2) is the gradient rule's Riesz metric and the Newton rule's
    Tikhonov term; eps1 alone sets its strength."""

    n_gradient_iters: int = 20
    # 0.4 keeps the warm-up monotone on fine meshes; larger steps oscillate
    # near the interface and damage the mesh before the Newton phase
    gradient_step: float = 0.4
    max_iters: int = 60
    eps1: float = 3e-2
    eps2: float = 5e-1
    tol_v: float = 1e-9

    def __post_init__(self):
        model.check_fields(
            self, positive=("gradient_step", "eps1", "tol_v"),
            nonnegative=("eps2", "n_gradient_iters", "max_iters"))
        if self.n_gradient_iters > self.max_iters:
            raise ValueError("n_gradient_iters must not exceed max_iters")


@dataclass
class IterationRecord:
    k: int
    objective: float
    grad_norm: float
    residual: float
    step: float
    mode: str
    invertibility_margin: float = 1.0


@dataclass
class History:
    records: list[IterationRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, rec):
        self.records.append(rec)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def write(self, path):
        """Six whitespace-separated columns; abort notes as # footer lines."""
        with open(path, "w") as fh:
            fh.write("# iteration objective grad_norm residual step mode\n")
            for r in self.records:
                fh.write(f"{r.k} {r.objective!r} {r.grad_norm!r} "
                         f"{r.residual!r} {r.step!r} {r.mode}\n")
            for note in self.notes:
                fh.write(f"# {note}\n")


def _dual_norms(ops, r_u, r_shape, r_lam):
    """Dual norms of the KKT right-hand side: (shape part in b^-1, the
    whole with M^-1 on r_u and r_lambda).

    r_u and r_lambda are one two-column right-hand side of the constrained
    mass, solved by `fem.solve_mass` (Chebyshev on the Jacobi-scaled M,
    relative error of r . M^-1 r below 1e-14), so M is never factorized;
    r_shape is solved by b's factorization.  Both are checked at
    `fem.SOLVE_RTOL`, as every solve is: a failed check raises
    SingularSystemError."""
    xu, xl = fem.solve_mass(ops.mass, np.column_stack([r_u, r_lam])).T
    su, sl = float(r_u @ xu), float(r_lam @ xl)
    ss = float(r_shape @ ops.metric.solve_constrained(r_shape))
    return float(np.sqrt(max(ss, 0.0))), float(np.sqrt(max(su + ss + sl, 0.0)))


def run_two_phase(mesh0: Mesh, cfg, target, sched: Schedule):
    """Projected gradient steps for the first `n_gradient_iters`
    iterations, one-shot Newton steps after them; with `n_gradient_iters`
    = `max_iters` every step is a gradient step."""
    mesh = mesh0
    history = History()
    # every iterate keeps mesh0's triangles: one set of CSR patterns serves
    # all of them, and dies with the run
    patterns = fem.ScatterPatterns(mesh0)
    for k in range(sched.max_iters + 1):
        ops = model.OperatorSet(mesh, cfg, sched.eps1, sched.eps2, patterns)
        mode = "newton" if k >= sched.n_gradient_iters else "gradient"
        t = 0.0
        try:
            stage = "transfer"
            z = model.transfer_target(target, mesh)
            z_grad = model.target_gradients(target, mesh)
            stage = "state"
            # project through the switch iteration so Newton starts feasible
            if k <= sched.n_gradient_iters:
                u = model.solve_state(ops)
                mass_w = model.mass_misfit(ops, u, z)
                lam = model.solve_adjoint(ops, u, z, mass_w)
            else:
                mass_w = model.mass_misfit(ops, u, z)
            j0 = model.objective(ops, u, z, mass_w)
            terms = shape_calculus.element_terms(ops, u, lam, z, z_grad,
                                                 mass_w=mass_w)
            gradient = kkt.lagrangian_gradient(terms)
            stage = "norms"
            gn, res = _dual_norms(ops, *gradient)
            stage = "step"
            if k < sched.max_iters:
                # no reference to the system (it holds `ops`) outlives k
                mode, (du, v, dlam) = _solve(
                    kkt.assemble_kkt(terms, reduced=mode == "gradient",
                                     gradient=gradient),
                    history.notes, k)
                t, halvings, margin = _step_length(ops, sched, mode, v)
        except STAGE_ERRORS as exc:
            history.notes.append(f"aborted at iteration {k} ({stage}): {exc}")
            if stage != "step":
                break
        del terms       # it holds `ops`: the set dies with its iterate
        if t == 0.0:    # converged, out of iterations, or a failed step
            history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
            break
        if halvings:
            history.notes.append(
                f"iteration {k}: step halved {halvings}x for invertibility")
        history.append(IterationRecord(k, j0, gn, res, t, mode, margin))
        mesh = apply_deformation(mesh, v, t)
        u = u + t * du
        lam = lam + t * dlam
    return mesh, history


def _solve(system, notes, k):
    """The rule that gave the step, and the step (du, V, dlambda).  A failed
    Newton solve falls back to the gradient rule on the same system."""
    if system.reduced:
        return "gradient", system.solve()
    try:
        return "newton", system.solve()
    except fem.SingularSystemError as exc:
        notes.append(f"iteration {k}: newton solve failed ({exc}); "
                     "gradient fallback")
        return "gradient", replace(system, reduced=True).solve()


def _step_length(ops, sched, mode, v):
    """(t, halvings, min area ratio) of an invertible step along V: the
    rule's step, halved until the mesh is invertible; t = 0 once V is below
    tol_v."""
    if np.sqrt(max(ops.metric.energy(v.reshape(-1)), 0.0)) <= sched.tol_v:
        return 0.0, 0, 1.0
    t = 1.0 if mode == "newton" else sched.gradient_step
    for halvings in range(MAX_HALVINGS + 1):
        ok, info = check_invertibility(ops.mesh, v, t)
        if ok:
            return t, halvings, info["min_area_ratio"]
        t *= 0.5
    raise NonInvertibleDeformation("deformation not invertible")
