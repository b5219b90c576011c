"""Layer recorder: spans around the public calls of each deformopt module.

The recorder patches every module-level function and method listed in
``LAYERS`` (plus ``scipy.sparse.linalg.splu``) with a wrapper that records
an in-memory span ``(name, start, end, parent, run id)``.  A name is patched
wherever callers look it up: ``driver`` binds ``check_invertibility`` via
``from .mesh import``, so every ``deformopt`` module attribute that *is* the
original function is replaced, not only the defining module's.

A span's self time is its duration minus the time its direct children cover
(calls are nested and sequential in this single-threaded program), so the
self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute or Class.method, span name)
LAYERS = [
    ("mesh", "generate_mesh", "mesh.generate"),
    ("mesh", "check_invertibility", "mesh.invertibility"),
    ("fem", "assemble_scalar_laplace", "fem.assemble"),
    ("fem", "assemble_mass", "fem.assemble"),
    ("fem", "assemble_vector_h1_form", "fem.assemble"),
    ("fem", "apply_dirichlet", "fem.dirichlet"),
    ("fem", "SparseOperator.solve_constrained", "fem.solve_constrained"),
    ("model", "TargetField.locate", "model.locate"),
    ("model", "transfer_target", "model.transfer"),
    ("model", "target_gradients", "model.target_gradients"),
    ("model", "solve_state", "model.state_solve"),
    ("model", "solve_adjoint", "model.adjoint_solve"),
    ("shape_calculus", "assemble_shape_derivative", "shape_calculus.derivative"),
    ("shape_calculus", "deformation_metric", "shape_calculus.metric"),
    ("kkt", "assemble_kkt", "kkt.assemble"),
    ("kkt", "assemble_hessian_blocks", "kkt.hessian_blocks"),
    ("kkt", "lagrangian_gradient", "kkt.lagrangian_gradient"),
    ("kkt", "KktSystem.solve", "kkt.solve"),
    ("driver", "_dual_norms", "driver.dual_norms"),
]


# what a span records about its call's result, besides its times
INFO = {
    "fem.factor": lambda factor: {"fill_nnz": factor.L.nnz + factor.U.nnz,
                                  "dofs": factor.shape[0]},
    "model.locate": lambda located: {"points": len(located)},
    "mesh.invertibility": lambda ok_info: {"ok": bool(ok_info[0])},
}


@dataclass
class Span:
    name: str
    start: int
    parent: int
    run: str
    end: int = 0
    child_ns: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.duration - self.child_ns


class Recorder:
    """In-memory spans; `run` opens a root span that tags its descendants."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name, run=None):
        parent = self._stack[-1] if self._stack else -1
        run = run if parent < 0 else self.spans[parent].run
        self.spans.append(Span(name, time.perf_counter_ns(), parent, run))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration

    @contextmanager
    def run(self, run_id):
        span = self._open("run", run_id)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn):
        info = INFO.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(result)
            return result

        return traced


@contextmanager
def patched(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    import scipy.sparse.linalg as spla
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "deformopt" or n.startswith("deformopt.")]

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(f"deformopt.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                replace(cls, meth, recorder.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, key, wrapper)
        replace(spla, "splu", recorder.wrap("fem.factor", spla.splu))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _nested_in_same_name(spans, span):
    p = span.parent
    while p >= 0:
        if spans[p].name == span.name:
            return True
        p = spans[p].parent
    return False


@dataclass
class Layer:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0          # inclusive, outermost spans of the name only
    info: list = field(default_factory=list)


def aggregate(recorder: Recorder, run_id):
    """Per span name under the root `run_id`: calls, self and total time."""
    out: dict[str, Layer] = {}
    for span in recorder.spans:
        if span.run != run_id or span.parent < 0:
            continue
        layer = out.setdefault(span.name, Layer())
        layer.calls += 1
        layer.self_ns += span.self_ns
        layer.info.append(span.info)
        if not _nested_in_same_name(recorder.spans, span):
            layer.total_ns += span.duration
    return out


def root(recorder: Recorder, run_id) -> Span:
    return next(s for s in recorder.spans if s.run == run_id and s.parent < 0)
