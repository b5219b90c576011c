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
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import model, driver, verify, vtkio
from .driver import Schedule
from .mesh import InclusionShape, MeshError, generate_mesh
from .model import ProblemConfig, TargetField


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
        kind, *values = self.mesh_shape.split() or [""]
        if (kind, len(values)) not in (("circle", 3), ("ellipse", 4)):
            raise ValueError(
                f"shape must be 'circle cx cy r' or 'ellipse cx cy a b', "
                f"got {self.mesh_shape!r}")
        cx, cy, *radii = [_coerce(0.0, v, ("mesh", "shape")) for v in values]
        if kind == "circle":
            return InclusionShape.circle((cx, cy), *radii)
        return InclusionShape.ellipse((cx, cy), tuple(radii))


def _coerce(current, text, where):
    """`text` read as the type of `current`; a ValueError that names
    `where`, the (section, key) of the value, if it does not read."""
    try:
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
    except ValueError as exc:
        section, key = where
        raise ValueError(f"{section} key {key!r}: {exc}") from None


def _value(rc, attr, name):
    owner = getattr(rc, attr)
    return owner if name is None else getattr(owner, name)


_DEFAULTS = RunConfig()
# Every settable value, in file order: (section, key) -> (RunConfig
# attribute, field of it or None).  Parsing, the unknown-key errors, the
# coercion (by the type of the default) and serialization read this table.
_KEYS = {
    **{("problem", f.name): ("problem", f.name)
       for f in dc_fields(ProblemConfig)},
    **{("schedule", f.name): ("schedule", f.name) for f in dc_fields(Schedule)},
    ("mesh", "h"): ("mesh_h", None),
    ("mesh", "shape"): ("mesh_shape", None),
    ("mesh", "load"): ("mesh_load", None),
    ("target", "h"): ("target_h", None),
    ("target", "load"): ("target_load", None),
    ("output", "output_dir"): ("output_dir", None),
    ("output", "seed"): ("seed", None),
    ("output", "emit_vtk"): ("emit_vtk", None),
}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse sectioned key=value text into a RunConfig.

    Each ``section.key=value`` override is read after the text, as one more
    line of it, so the config is validated once, with every override in
    place.  Values are read as written: ``%`` is not interpolation syntax.
    Text that configparser cannot read (no section header, a key or a
    section twice) is a ValueError, as is every other refused config.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ValueError(
                    f"override must be section.key=value: {item!r}")
            key, value = item.split("=", 1)
            section, key = key.split(".", 1)
            cp.read_string(f"[{section}]\n{key} = {value}\n")
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    attrs, nested = {}, {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        for key, text_value in cp.items(section):
            if (section, key) not in _KEYS:
                raise ValueError(f"unknown {section} key {key!r}")
            attr, name = _KEYS[section, key]
            value = _coerce(_value(_DEFAULTS, attr, name), text_value,
                            (section, key))
            if name is None:
                attrs[attr] = value
            else:
                nested.setdefault(attr, {})[name] = value
    for attr, values in nested.items():
        attrs[attr] = replace(getattr(_DEFAULTS, attr), **values)
    return RunConfig(**attrs)


def serialize_config(rc: RunConfig) -> str:
    """Inverse of parse_config (parse -> serialize -> parse is idempotent).
    An unset ``load`` path is not written."""
    cp = configparser.ConfigParser(interpolation=None)
    for (section, key), (attr, name) in _KEYS.items():
        value = _value(rc, attr, name)
        if value == "" == _value(_DEFAULTS, attr, name):
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(value))
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
        mesh, scalars = vtkio.read_vtk(rc.target_load)
        if "z" not in scalars:
            raise MeshError(f"target file {rc.target_load} has no point "
                            f"scalar 'z'")
        return TargetField(mesh, scalars["z"])
    return model.make_target(rc.problem, rc.target_h)


def cmd_generate_target(rc: RunConfig) -> int:
    out = Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = model.make_target(rc.problem, rc.target_h)
    path = out / "target.vtk"
    vtkio.write_vtk(path, target.mesh, point_scalars={"z": target.z},
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
        mesh0, _ = vtkio.read_vtk(rc.mesh_load)
    else:
        mesh0 = generate_mesh(rc.parse_shape(), rc.mesh_h)
    mesh, history = driver.run_two_phase(mesh0, rc.problem, target,
                                         rc.schedule)
    produced = []
    hist_path = out / "history.txt"
    history.write(hist_path)
    produced.append(hist_path)
    # the last iterate of an aborted run may fail the same stage again
    aborted = any("aborted" in note for note in history.notes)
    if rc.emit_vtk and not aborted:
        ops = model.OperatorSet(mesh, rc.problem)
        z = model.transfer_target(target, mesh)
        u = model.solve_state(ops)
        lam = model.solve_adjoint(ops, u, z)
        mesh_path = out / "final_mesh.vtk"
        vtkio.write_vtk(mesh_path, mesh,
                        point_scalars={"u": u, "lambda": lam, "z": z},
                        title="final iterate")
        produced.append(mesh_path)
    _write_metadata(out, rc, produced)
    if history.records:
        last = history.records[-1]
        print(f"finished after {last.k} iterations: J={last.objective:.6e} "
              f"residual={last.residual:.3e}")
    for note in history.notes:
        print(f"note: {note}")
    return 1 if aborted else 0


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
