"""The deformation loop: one iteration, a gradient and a Newton step rule.

The first `n_gradient_iters` iterations are a projected gradient warm-up:
the state and adjoint are re-solved at each iterate, the reduced KKT
system is solved (V is the b-Riesz gradient) and the fixed step
`gradient_step` is taken.  The later iterations are one-shot Newton steps
on the full system, which fall back to the gradient rule on the same
system when that solve fails.  Steps are halved until the mesh stays
invertible, and a failed step ends the run with an `aborted` note.
Each iterate builds one `model.OperatorSet`, on the run's one set of CSR
patterns, and one set of element terms, which the gradient and the KKT
system read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, kkt, model, shape_calculus
from .fem import ScalarField
from .mesh import Mesh, apply_deformation, check_invertibility


class LineSearchError(RuntimeError):
    pass


MAX_HALVINGS = 30      # step halvings before a step is given up


@dataclass(frozen=True)
class Schedule:
    """Iteration schedule and regularization knobs.  The gradient rule
    takes `gradient_step` and the Newton rule `newton_step`, each halved
    only until the mesh stays invertible.  The metric b of (eps1, eps2) is
    the gradient rule's Riesz metric and the Newton rule's Tikhonov term;
    eps1 alone sets its strength."""

    n_gradient_iters: int = 20
    # 0.4 keeps the warm-up monotone on fine meshes; larger steps oscillate
    # near the interface and damage the mesh before the Newton phase
    gradient_step: float = 0.4
    newton_step: float = 1.0
    max_iters: int = 60
    eps1: float = 3e-2
    eps2: float = 5e-1
    tol_v: float = 1e-9

    def __post_init__(self):
        model.check_fields(
            self, positive=("gradient_step", "newton_step", "eps1", "tol_v"),
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
    whole with M^-1 on r_u and r_lambda)."""
    # the norms are diagnostics: tolerate lower solver accuracy on badly
    # deformed meshes rather than aborting the whole run; r_u and r_lambda
    # are one two-column right-hand side on M's factorization
    xu, xl = ops.mass.solve_constrained(np.column_stack([r_u, r_lam]),
                                        rtol=1e-6).T
    su, sl = float(r_u @ xu), float(r_lam @ xl)
    ss = float(r_shape @ ops.metric.solve_constrained(r_shape, rtol=1e-6))
    return float(np.sqrt(max(ss, 0.0))), float(np.sqrt(max(su + ss + sl, 0.0)))


def steepest_descent(mesh0: Mesh, cfg, target, sched: Schedule):
    """Projected-gradient loop: `run_two_phase` with every iteration a
    gradient step and the state and adjoint re-solved each time."""
    return run_two_phase(mesh0, cfg, target, sched, _newton=False)


def run_two_phase(mesh0: Mesh, cfg, target, sched: Schedule, _newton=True):
    """Projected gradient steps for the first `n_gradient_iters`
    iterations, one-shot Newton steps after them (none with
    `_newton=False`)."""
    n_gradient = sched.n_gradient_iters if _newton else sched.max_iters + 1
    mesh = mesh0
    history = History()
    # every iterate keeps mesh0's triangles: one set of CSR patterns serves
    # all of them, and dies with the run
    patterns = fem.ScatterPatterns(mesh0)
    for k in range(sched.max_iters + 1):
        ops = model.OperatorSet(mesh, cfg, sched.eps1, sched.eps2, patterns)
        z = model.transfer_target(target, mesh)
        z_grad = model.target_gradients(target, mesh)
        mode = "newton" if k >= n_gradient else "gradient"
        mass_w = None       # M (u - z), shared where the adjoint is solved
        # project through the switch iteration so Newton starts feasible
        if k <= n_gradient:
            u = model.solve_state(ops)
            mass_w = model.mass_misfit(ops, u, z)
            lam = model.solve_adjoint(ops, u, z, mass_w)
        j0 = model.objective(ops, u, z)
        terms = shape_calculus.element_terms(ops, u, lam, z, z_grad,
                                             mass_w=mass_w)
        gradient = kkt.lagrangian_gradient(terms)
        t = 0.0
        if k < sched.max_iters:
            try:
                # no reference to the system (it holds `ops`) outlives k
                mode, (du, v, dlam) = _solve(
                    kkt.assemble_kkt(terms, reduced=mode == "gradient",
                                     gradient=gradient),
                    history.notes, k)
                t, halvings, margin = _step_length(ops, sched, mode, v)
            except (fem.SingularSystemError, LineSearchError) as exc:
                history.notes.append(f"aborted at iteration {k}: {exc}")
        del terms       # it holds `ops`: the set dies with its iterate
        # after the step: M's factorization (only used here) then never
        # coexists with the step's, which keeps peak memory down
        gn, res = _dual_norms(ops, *gradient)
        if t == 0.0:
            history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
            break
        if halvings:
            history.notes.append(
                f"iteration {k}: step halved {halvings}x for invertibility")
        history.append(IterationRecord(k, j0, gn, res, t, mode, margin))
        mesh = apply_deformation(mesh, v, t)
        u = ScalarField(mesh, u.values + t * du.values)
        lam = ScalarField(mesh, lam.values + t * dlam.values)
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
    if np.sqrt(max(ops.metric.energy(v.flat()), 0.0)) <= sched.tol_v:
        return 0.0, 0, 1.0
    t = sched.newton_step if mode == "newton" else sched.gradient_step
    for halvings in range(MAX_HALVINGS + 1):
        ok, info = check_invertibility(ops.mesh, v, t)
        if ok:
            return t, halvings, info["min_area_ratio"]
        t *= 0.5
    raise LineSearchError("deformation not invertible")
