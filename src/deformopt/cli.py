"""Command-line interface: target generation, optimization runs, checks.

Configuration is flat ``key = value`` text with sections, read by
configparser.  Every run echoes its effective parameters and the SHA-256
checksums of produced files into a ``metadata.txt`` sidecar.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import model, driver, verify, vtkio
from .driver import Schedule
from .fem import ScalarField
from .mesh import InclusionShape, generate_mesh
from .model import ProblemConfig, TargetField

_SHAPE_KINDS = ("circle", "ellipse")


@dataclass
class RunConfig:
    """Everything one command needs, mirroring the config file sections."""

    problem: ProblemConfig = field(default_factory=ProblemConfig)
    schedule: Schedule = field(default_factory=Schedule)
    mesh_h: float = 0.05
    mesh_shape: str = "circle 0.5 0.5 0.2"
    mesh_load: str = ""
    target_h: float = 0.05
    target_load: str = ""
    output_dir: str = "out"
    seed: int = verify.DEFAULT_SEED
    emit_vtk: bool = True

    def parse_shape(self) -> InclusionShape:
        parts = self.mesh_shape.split()
        kind = parts[0]
        if kind == "circle" and len(parts) == 4:
            cx, cy, r = map(float, parts[1:])
            return InclusionShape.circle((cx, cy), r)
        if kind == "ellipse" and len(parts) == 5:
            cx, cy, a, b = map(float, parts[1:])
            return InclusionShape.ellipse((cx, cy), (a, b))
        raise ValueError(
            f"shape must be 'circle cx cy r' or 'ellipse cx cy a b', "
            f"got {self.mesh_shape!r}")


def _coerce(current, text):
    if isinstance(current, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    return text


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse sectioned key=value text into a RunConfig.

    Each ``section.key=value`` override is read after the text, as one more
    line of it, so the config is validated once, with every override in
    place.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"override must be section.key=value: {item!r}")
        key, value = item.split("=", 1)
        section, key = key.split(".", 1)
        cp.read_string(f"[{section}]\n{key} = {value}\n")
    rc = RunConfig()
    problem = dict()
    schedule = dict()
    known = {"problem": {f.name for f in dc_fields(ProblemConfig)},
             "schedule": {f.name for f in dc_fields(Schedule)}}
    for section in cp.sections():
        for key, value in cp.items(section):
            if section in known and key not in known[section]:
                raise ValueError(f"unknown {section} key {key!r}")
            if section == "problem":
                problem[key] = float(value)
            elif section == "schedule":
                default = getattr(Schedule(), key)
                schedule[key] = _coerce(default, value)
            elif section == "mesh":
                if key == "h":
                    rc.mesh_h = float(value)
                elif key == "shape":
                    rc.mesh_shape = value
                elif key == "load":
                    rc.mesh_load = value
                else:
                    raise ValueError(f"unknown mesh key {key!r}")
            elif section == "target":
                if key == "h":
                    rc.target_h = float(value)
                elif key == "load":
                    rc.target_load = value
                else:
                    raise ValueError(f"unknown target key {key!r}")
            elif section == "output":
                if key == "output_dir":
                    rc.output_dir = value
                elif key == "seed":
                    rc.seed = int(value)
                elif key == "emit_vtk":
                    rc.emit_vtk = _coerce(True, value)
                else:
                    raise ValueError(f"unknown output key {key!r}")
            else:
                raise ValueError(f"unknown config section {section!r}")
    rc.problem = ProblemConfig(**problem)
    rc.schedule = Schedule(**schedule)
    return rc


def serialize_config(rc: RunConfig) -> str:
    """Inverse of parse_config (parse -> serialize -> parse is idempotent)."""
    cp = configparser.ConfigParser()
    cp["problem"] = {f.name: repr(getattr(rc.problem, f.name))
                     for f in dc_fields(ProblemConfig)}
    cp["schedule"] = {f.name: str(getattr(rc.schedule, f.name))
                      for f in dc_fields(Schedule)}
    mesh = {"h": repr(rc.mesh_h), "shape": rc.mesh_shape}
    if rc.mesh_load:
        mesh = {"load": rc.mesh_load}
    cp["mesh"] = mesh
    target = {"load": rc.target_load} if rc.target_load \
        else {"h": repr(rc.target_h)}
    cp["target"] = target
    cp["output"] = {"output_dir": rc.output_dir, "seed": str(rc.seed),
                    "emit_vtk": str(rc.emit_vtk)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path, overrides=()):
    text = Path(path).read_text() if path else ""
    return parse_config(text, overrides)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_metadata(out_dir: Path, rc: RunConfig, produced):
    lines = ["# run metadata", ""]
    lines.append(serialize_config(rc))
    lines.append("[checksums]")
    for p in produced:
        lines.append(f"{Path(p).name} = {_sha256(p)}")
    (out_dir / "metadata.txt").write_text("\n".join(lines) + "\n")


def _load_target(rc: RunConfig) -> TargetField:
    if rc.target_load:
        mesh, scalars, _ = vtkio.read_vtk(rc.target_load)
        return TargetField(mesh, ScalarField(mesh, scalars["z"]))
    return model.make_target(rc.problem, rc.target_h)


def cmd_generate_target(rc: RunConfig) -> int:
    out = Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = model.make_target(rc.problem, rc.target_h)
    path = out / "target.vtk"
    vtkio.write_vtk(path, target.mesh, point_scalars={"z": target.z.values},
                    title="target potential on background mesh")
    frac = model.energy_fraction(target.mesh, rc.problem, target.z)
    print(f"target written: {path} "
          f"({target.mesh.num_triangles} elements, "
          f"inclusion energy fraction {frac:.3e})")
    _write_metadata(out, rc, [path])
    return 0


def cmd_optimize(rc: RunConfig) -> int:
    out = Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = _load_target(rc)
    if rc.mesh_load:
        mesh0, _, _ = vtkio.read_vtk(rc.mesh_load)
    else:
        mesh0 = generate_mesh(rc.parse_shape(), rc.mesh_h)
    mesh, history = driver.run_two_phase(mesh0, rc.problem, target,
                                         rc.schedule)
    produced = []
    hist_path = out / "history.txt"
    history.write(hist_path)
    produced.append(hist_path)
    if rc.emit_vtk:
        ops = model.OperatorSet(mesh, rc.problem)
        z = model.transfer_target(target, mesh)
        u = model.solve_state(ops)
        lam = model.solve_adjoint(ops, u, z)
        mesh_path = out / "final_mesh.vtk"
        vtkio.write_vtk(mesh_path, mesh,
                        point_scalars={"u": u.values, "lambda": lam.values,
                                       "z": z.values},
                        title="final iterate")
        produced.append(mesh_path)
    _write_metadata(out, rc, produced)
    last = history.records[-1]
    print(f"finished after {last.k} iterations: J={last.objective:.6e} "
          f"residual={last.residual:.3e}")
    for note in history.notes:
        print(f"note: {note}")
    return 0


def cmd_verify(rc: RunConfig) -> int:
    report = verify.run_all(seed=rc.seed)
    print(json.dumps(report, indent=2))
    ok = all(entry["passed"] for entry in report)
    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"({sum(e['passed'] for e in report)}/{len(report)} suites)")
    return 0 if ok else 1


def cmd_pseudo_demo(rc: RunConfig) -> int:
    """Print the epsilon-convergence table for one random singular system."""
    from . import pseudoinverse as pi
    rng = np.random.default_rng(rc.seed)
    op = pi.random_singular_psd(rng, 12, rank=7)
    b = op.h @ rng.standard_normal(12)
    eps0 = 1e-2 * op.smallest_positive_eigenvalue()
    eps_values = [eps0 / 2 ** k for k in range(6)]
    v_hat, rows = pi.epsilon_table(op, b, eps_values)
    print(f"min-norm solution g-norm: {op.ms.norm(v_hat):.6e}")
    print(f"{'eps':>14} {'|V_eps - V_hat|_g':>20} {'ratio':>8}")
    prev = None
    for eps, err in rows:
        ratio = "" if prev is None else f"{err / prev:8.4f}"
        print(f"{eps:14.6e} {err:20.6e} {ratio:>8}")
        prev = err
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deformopt",
        description="Deformation-field shape optimization for interface "
                    "identification on the unit square.")
    parser.add_argument("-c", "--config", default=None,
                        help="path to a key=value config file")
    parser.add_argument("-s", "--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config entry")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate-target",
                   help="solve on the true-ellipse background mesh")
    sub.add_parser("optimize", help="run the two-phase optimization")
    sub.add_parser("verify", help="run all oracle suites")
    sub.add_parser("pseudo-demo",
                   help="print a pseudoinverse epsilon-convergence table")
    args = parser.parse_args(argv)
    rc = load_config(args.config, args.set)
    dispatch = {
        "generate-target": cmd_generate_target,
        "optimize": cmd_optimize,
        "verify": cmd_verify,
        "pseudo-demo": cmd_pseudo_demo,
    }
    return dispatch[args.command](rc)


if __name__ == "__main__":
    sys.exit(main())
