import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from deformopt import driver, fem, kkt, model
from deformopt.driver import History, IterationRecord, Schedule, run_two_phase
from deformopt.mesh import (InclusionShape, NonInvertibleDeformation,
                            generate_mesh)
from deformopt.model import ProblemConfig


@pytest.fixture(scope="module")
def coarse():
    cfg = ProblemConfig()
    target = model.make_target(cfg, 0.05)
    mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)
    return cfg, target, mesh


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(gradient_step=0.0)
        with pytest.raises(ValueError):
            Schedule(n_gradient_iters=10, max_iters=5)
        for name in ("max_iters", "n_gradient_iters"):
            with pytest.raises(ValueError, match=f"{name} must be finite "
                                                 "and nonnegative"):
                Schedule(**{name: -1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cls, name", [
        (Schedule, "gradient_step"), (Schedule, "eps1"),
        (Schedule, "eps2"), (Schedule, "tol_v"),
        (ProblemConfig, "alpha"), (ProblemConfig, "mu_in"),
        (ProblemConfig, "mu_out")])
    def test_non_finite_float_field_rejected(self, cls, name, value):
        """NaN passes a `<= 0` test; every float field must be finite."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})


class TestHistory:
    def test_write_format(self, tmp_path):
        h = History()
        h.append(IterationRecord(0, 1.0, 0.5, 0.7, 0.9, "gradient"))
        h.append(IterationRecord(1, 0.5, 0.25, 0.3, 1.0, "newton"))
        h.notes.append("switched phase")
        path = tmp_path / "history.txt"
        h.write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# iteration objective grad_norm residual step mode"
        assert lines[1].split() == ["0", "1.0", "0.5", "0.7", "0.9",
                                    "gradient"]
        assert lines[-1] == "# switched phase"

    def test_column(self):
        h = History()
        h.append(IterationRecord(0, 2.0, 1.0, 1.0, 0.1, "gradient"))
        h.append(IterationRecord(1, 1.0, 0.5, 0.5, 0.1, "gradient"))
        assert np.array_equal(h.column("objective"), [2.0, 1.0])


class TestSteepestDescent:
    def test_stationary_when_started_at_target_shape(self):
        """Starting on the true inclusion with no area penalty, the gradient
        is already tiny and the loop stops without moving much."""
        cfg = ProblemConfig(alpha=0.0)
        target_mesh = generate_mesh(model.TRUE_ELLIPSE, 0.1)
        target = model.TargetField(target_mesh,
                                   model.solve_state(
                                       model.OperatorSet(target_mesh, cfg)))
        sched = Schedule(n_gradient_iters=3, max_iters=3)
        final, hist = run_two_phase(target_mesh, cfg, target, sched)
        assert hist.column("objective")[0] < 1e-12
        assert hist.column("grad_norm")[0] < 1e-4
        moved = np.abs(final.vertices - target_mesh.vertices).max()
        assert moved < 5e-3


class TestTwoPhase:
    def test_short_run_decreases_objective_and_records_modes(self, coarse):
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=3, max_iters=8, gradient_step=0.5)
        final, hist = run_two_phase(mesh, cfg, target, sched)
        modes = [r.mode for r in hist.records]
        assert modes[:3] == ["gradient"] * 3
        assert "newton" in modes
        j = hist.column("objective")
        assert j[-1] < j[0]
        assert len(hist.records) == 9

    def test_newton_reduces_kkt_residual(self, coarse):
        """Newton phase drops the residual well below its switch value."""
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=5, max_iters=20, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        res = hist.column("residual")
        assert res[-1] < 0.1 * res[5]

    def test_tiny_tolerance_stops_early(self, coarse):
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=2, max_iters=50, tol_v=1e3)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert len(hist.records) == 1
        assert hist.records[0].step == 0.0


def fail_newton_solve_once(monkeypatch, at_call):
    """Make the `at_call`-th Newton (non-reduced) KKT solve raise."""
    original = kkt.KktSystem.solve
    calls = []

    def solve(system):
        if not system.reduced:
            calls.append(len(calls))
            if len(calls) == at_call:
                raise fem.SingularSystemError("injected singular KKT")
        return original(system)

    monkeypatch.setattr(kkt.KktSystem, "solve", solve)


class TestReducedStepConsumers:
    """Paths that move u and lambda by the du and dlambda of the reduced
    step instead of re-solving them."""

    def test_newton_failure_falls_back_to_gradient_step(self, coarse,
                                                        monkeypatch):
        cfg, target, mesh = coarse
        fail_newton_solve_once(monkeypatch, at_call=2)
        sched = Schedule(n_gradient_iters=2, max_iters=6, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["iteration 3: newton solve failed "
                              "(injected singular KKT); gradient fallback"]
        modes = [r.mode for r in hist.records]
        assert modes == ["gradient"] * 2 + ["newton", "gradient"] \
            + ["newton"] * 3
        assert np.all(np.diff(hist.column("objective")) < 0)

    def test_minres_failure_falls_back_to_gradient_step(self, coarse,
                                                        monkeypatch):
        """MINRES stopping at its cap is a typed Newton failure: the
        driver takes the gradient step instead and records it."""
        cfg, target, mesh = coarse
        monkeypatch.setattr(spla, "minres",
                            lambda op, rhs, **kw: (rhs, kw["maxiter"]))
        sched = Schedule(n_gradient_iters=2, max_iters=4, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert len(hist.notes) == 2
        assert all("gradient fallback" in n and "MINRES" in n
                   for n in hist.notes)
        assert [r.mode for r in hist.records] == ["gradient"] * 4 + ["newton"]
        assert np.all(np.diff(hist.column("objective")) < 0)


def fold_first(monkeypatch, n_folds):
    """Make the first `n_folds` invertibility checks report a folded mesh
    (all of them with n_folds=None)."""
    real = driver.check_invertibility
    calls = []

    def check(mesh, v, t):
        calls.append(t)
        if n_folds is None or len(calls) <= n_folds:
            return False, {"min_area_ratio": -1.0}
        return real(mesh, v, t)

    monkeypatch.setattr(driver, "check_invertibility", check)
    return calls


def fail_third_call(monkeypatch, owner, name, exc):
    """Make the third call of `owner.name` raise `exc`."""
    real, calls = getattr(owner, name), []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


class TestTypedOutcomes:
    """Every failure of a stage ends the run with a note; a failed step
    keeps its row, with step 0."""

    def test_always_folding_step_aborts(self, coarse, monkeypatch):
        """A gradient step and a Newton step that fold at every halving."""
        cfg, target, mesh = coarse
        calls = fold_first(monkeypatch, None)
        for n_gradient, mode in ((2, "gradient"), (0, "newton")):
            calls.clear()
            _, hist = run_two_phase(
                mesh, cfg, target,
                Schedule(n_gradient_iters=n_gradient, max_iters=4))
            assert hist.notes == ["aborted at iteration 0 (step): "
                                  "deformation not invertible"]
            assert len(hist.records) == 1
            assert hist.records[0].step == 0.0
            assert hist.records[0].mode == mode
            assert len(calls) == driver.MAX_HALVINGS + 1

    def test_singular_kkt_aborts_after_fallback(self, coarse, monkeypatch):
        """A Newton solve that fails falls back to the gradient rule; when
        that solve fails too, the run ends with a note, not an exception."""
        cfg, target, mesh = coarse

        def singular(system):
            raise fem.SingularSystemError("injected singular KKT")

        monkeypatch.setattr(kkt.KktSystem, "solve", singular)
        sched = Schedule(n_gradient_iters=0, max_iters=4)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["iteration 0: newton solve failed (injected "
                              "singular KKT); gradient fallback",
                              "aborted at iteration 0 (step): "
                              "injected singular KKT"]
        assert len(hist.records) == 1
        assert hist.records[0].step == 0.0

    def test_failed_norms_end_the_run_with_a_note(self, coarse,
                                                  monkeypatch):
        """A residual-column solve that fails at the third iterate ends the
        run with a note and keeps the two earlier rows as they were."""
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=2, max_iters=4)
        _, clean = run_two_phase(mesh, cfg, target, sched)
        assert len(clean.records) == 5 and not clean.notes
        fail_third_call(monkeypatch, fem, "solve_mass",
                        fem.SingularSystemError("injected"))
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["aborted at iteration 2 (norms): injected"]
        assert repr(hist.records) == repr(clean.records[:2])

    @pytest.mark.parametrize("name", ["solve_state", "solve_adjoint"])
    def test_failed_state_solve_ends_the_run_with_a_note(self, coarse,
                                                         monkeypatch, name):
        """A state or adjoint solve that fails at the third iterate ends
        the run with a note and keeps the two earlier rows as they were."""
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=3, max_iters=5)
        _, clean = run_two_phase(mesh, cfg, target, sched)
        assert len(clean.records) == 6 and not clean.notes
        fail_third_call(monkeypatch, model, name,
                        fem.SingularSystemError("injected"))
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["aborted at iteration 2 (state): injected"]
        assert repr(hist.records) == repr(clean.records[:2])

    @pytest.mark.parametrize("name", ["transfer_target", "target_gradients"])
    def test_failed_transfer_ends_the_run_with_a_note(self, coarse,
                                                      monkeypatch, name):
        """A vertex that the third iterate moves far outside the target's
        mesh ends the run with a note and keeps the two earlier rows as
        they were."""
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=3, max_iters=5)
        _, clean = run_two_phase(mesh, cfg, target, sched)
        assert len(clean.records) == 6 and not clean.notes
        fail_third_call(monkeypatch, model, name,
                        model.PointOutsideMesh("injected"))
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["aborted at iteration 2 (transfer): injected"]
        assert repr(hist.records) == repr(clean.records[:2])

    def test_norms_run_before_the_step(self, coarse, monkeypatch):
        """The residual column is the stage before the step: when both fail
        at iteration 0, the note names the norms and no row is kept."""
        cfg, target, mesh = coarse

        def singular(*args, **kwargs):
            raise fem.SingularSystemError("injected")

        def folding(*args, **kwargs):
            raise NonInvertibleDeformation("deformation not invertible")

        monkeypatch.setattr(fem, "solve_mass", singular)
        monkeypatch.setattr(driver, "_step_length", folding)
        _, hist = run_two_phase(mesh, cfg, target,
                                Schedule(n_gradient_iters=2, max_iters=4))
        assert hist.notes == ["aborted at iteration 0 (norms): injected"]
        assert not hist.records

    def test_programming_error_propagates(self, coarse, monkeypatch):
        """Only `driver.STAGE_ERRORS` become notes: a FemError raised by
        the state solve at the third row propagates out of the run."""
        cfg, target, mesh = coarse
        fail_third_call(monkeypatch, model, "solve_state",
                        fem.FemError("injected"))
        with pytest.raises(fem.FemError, match="injected"):
            run_two_phase(mesh, cfg, target,
                          Schedule(n_gradient_iters=3, max_iters=5))

    def test_step_halved_twice(self, coarse, monkeypatch):
        cfg, target, mesh = coarse
        fold_first(monkeypatch, 2)
        sched = Schedule(n_gradient_iters=1, max_iters=1, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert hist.notes == ["iteration 0: step halved 2x for "
                              "invertibility"]
        assert hist.records[0].step == 0.125
        assert hist.records[0].invertibility_margin > 0


class TestDualNorms:
    def test_metric_solve_checked_at_the_solve_tolerance(self, coarse):
        """The residual column's b solve is checked at `fem.SOLVE_RTOL`, as
        every solve is: solutions scaled by 1 + 1e-7 fail it."""
        cfg, _, mesh = coarse
        ops = model.OperatorSet(mesh, cfg, 3e-2, 0.5)
        n = mesh.num_vertices
        r_shape = np.random.default_rng(0).standard_normal(2 * n)
        r_shape[ops.metric.constrained] = 0.0
        r_shape *= 2.0 / np.linalg.norm(r_shape)
        zeros = np.zeros(n)
        driver._dual_norms(ops, zeros, r_shape, zeros)
        exact = ops.metric.block._factor

        class Scaled:
            def solve(self, rhs):
                return (1.0 + 1e-7) * exact.solve(rhs)

        ops.metric.block._factor = Scaled()
        with pytest.raises(fem.SingularSystemError,
                           match="linear solve residual 2.0"):
            driver._dual_norms(ops, zeros, r_shape, zeros)


class TestOneLoop:
    def test_fallback_reuses_the_iterate_system(self, coarse, monkeypatch):
        """A failed Newton solve falls back on the same KktSystem: the
        Hessian blocks are assembled once per step, fallback included."""
        cfg, target, mesh = coarse
        real = kkt.assemble_hessian_blocks
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kkt, "assemble_hessian_blocks", counted)
        fail_newton_solve_once(monkeypatch, at_call=2)
        sched = Schedule(n_gradient_iters=2, max_iters=6, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert any("gradient fallback" in n for n in hist.notes)
        assert len(calls) == len(hist.records) - 1

    def test_element_gradients_twice_per_row(self, coarse, monkeypatch):
        """The derivative and the Hessian blocks read one set of element
        terms: grad u and grad lambda are formed once each per row."""
        cfg, target, mesh = coarse
        model.target_gradients(target, mesh)    # caches the target's own
        grads = count_calls(monkeypatch, fem, "elem_grad")
        sched = Schedule(n_gradient_iters=3, max_iters=6, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert [r.mode for r in hist.records] == ["gradient"] * 3 \
            + ["newton"] * 4
        assert len(grads) == 2 * len(hist.records) == 14

    def test_steepest_descent_rows_are_gradient(self, coarse):
        """With `n_gradient_iters` = `max_iters` every step is a gradient
        step; the last row, which takes no step, is labelled newton."""
        cfg, target, mesh = coarse
        sched = Schedule(n_gradient_iters=2, max_iters=2, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert [r.mode for r in hist.records] == ["gradient"] * 2 + ["newton"]
        assert hist.column("step").tolist() == [0.5, 0.5, 0.0]
        assert not hist.notes


def count_calls(monkeypatch, owner, name):
    """Record a call of `owner.name` in the returned list each time."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneOperatorSetPerIterate:
    def test_factorizations_and_locates_per_row(self, coarse, monkeypatch):
        """K and b are factorized at most once each per History row (M
        never), and the vertices are located once per row."""
        cfg, _, mesh = coarse
        target = model.make_target(cfg, 0.05)
        splu = count_calls(monkeypatch, spla, "splu")
        locate = count_calls(monkeypatch, model.TargetField, "locate")
        sched = Schedule(n_gradient_iters=3, max_iters=6, gradient_step=0.5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        rows = len(hist.records)
        assert [r.mode for r in hist.records] == ["gradient"] * 3 \
            + ["newton"] * 4
        assert len(splu) <= 2 * rows
        assert len(locate) == rows

    def test_one_state_solve_and_transfer_per_row(self, coarse,
                                                  monkeypatch):
        """Each projected iterate solves the state and transfers z once."""
        cfg, target, mesh = coarse
        solves = count_calls(monkeypatch, model, "solve_state")
        transfers = count_calls(monkeypatch, model, "transfer_target")
        sched = Schedule(n_gradient_iters=5, max_iters=5)
        _, hist = run_two_phase(mesh, cfg, target, sched)
        assert len(hist.records) == 6 and not hist.notes
        assert hist.column("step")[:-1].tolist() == [0.4] * 5
        assert len(solves) == len(transfers) == 6

    def test_mass_misfit_once_per_row(self, coarse, monkeypatch):
        """M (u - z) is formed once per row, projected or Newton: the
        adjoint, the objective and the element terms share it."""
        cfg, target, mesh = coarse
        products = count_calls(monkeypatch, model, "mass_misfit")
        _, hist = run_two_phase(mesh, cfg, target,
                                Schedule(n_gradient_iters=3, max_iters=5))
        assert len(products) == len(hist.records) == 6


class TestScatterPatternsPerRun:
    """One `fem.ScatterPatterns` per run, handed to every iterate."""

    @staticmethod
    def record_builds(monkeypatch):
        """The block kind (dofs per vertex of rows and columns) of every
        pattern derived from the 3x3 one, in the returned list."""
        real, kinds = fem._kind_pattern, []

        def counted(square_slot, square_ptr, triangles, kind):
            kinds.append(kind)
            return real(square_slot, square_ptr, triangles, kind)

        monkeypatch.setattr(fem, "_kind_pattern", counted)
        return kinds

    def test_each_kind_built_once_per_run(self, monkeypatch):
        """The newton benchmark's sizes (h=0.02, target h=0.01, 3 gradient
        and 2 Newton iterations): K, M, b; L_lambdaOmega, L_uOmega; and
        L_OmegaOmega each fill one pattern built once, 3 builds in all.
        A gradient-only run never builds the 6x6 one."""
        cfg = ProblemConfig()
        target = model.make_target(cfg, 0.01)
        mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.02)
        kinds = self.record_builds(monkeypatch)
        _, hist = run_two_phase(mesh, cfg, target,
                                Schedule(n_gradient_iters=3, max_iters=5))
        assert [r.mode for r in hist.records] == ["gradient"] * 3 \
            + ["newton"] * 3
        assert sorted(kinds) == [(1, 1), (1, 2), (2, 2)]
        kinds.clear()
        run_two_phase(mesh, cfg, target, Schedule(n_gradient_iters=2,
                                                  max_iters=2))
        assert sorted(kinds) == [(1, 1), (1, 2)]

    def test_two_restrictions_per_run(self, monkeypatch):
        """At the newton benchmark's sizes a run builds two free-block
        gathers, each on its first use: K and M share the state's
        Dirichlet set, and b_s has the outer boundary."""
        cfg = ProblemConfig()
        target = model.make_target(cfg, 0.01)
        mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.02)
        built = []

        class Counted(fem._Restriction):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(fem, "_Restriction", Counted)
        _, hist = run_two_phase(mesh, cfg, target,
                                Schedule(n_gradient_iters=3, max_iters=5))
        assert [r.mode for r in hist.records][-1] == "newton"
        assert len(built) == 2

    def test_patterns_die_with_the_run(self, coarse, monkeypatch):
        """The run makes one pattern object, its iterates make none, and
        reference counting frees it once `run_two_phase` returns: neither
        the returned mesh nor the History keeps it."""
        cfg, target, mesh = coarse
        made = []

        class Recorded(fem.ScatterPatterns):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(fem, "ScatterPatterns", Recorded)
        gc.disable()
        try:
            _, hist = run_two_phase(
                mesh, cfg, target, Schedule(n_gradient_iters=2, max_iters=4))
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()
        assert [r.mode for r in hist.records][-1] == "newton"
