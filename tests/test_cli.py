import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from deformopt import cli, fem, model, vtkio
from deformopt.cli import (RunConfig, load_config, parse_config,
                           serialize_config)
from deformopt.mesh import InclusionShape, MeshError, generate_mesh

README = Path(__file__).parents[1] / "README.md"


@pytest.fixture(scope="module")
def small_mesh():
    return generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)


class TestVtkRoundTrip:
    def test_mesh_and_fields_bit_exact(self, small_mesh, tmp_path):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(small_mesh.num_vertices)
        path = tmp_path / "m.vtk"
        vtkio.write_vtk(path, small_mesh, point_scalars={"u": s})
        mesh2, scalars = vtkio.read_vtk(path)
        assert np.array_equal(mesh2.vertices, small_mesh.vertices)
        assert np.array_equal(mesh2.triangles, small_mesh.triangles)
        assert np.array_equal(mesh2.region, small_mesh.region)
        assert np.array_equal(mesh2.boundary_tags, small_mesh.boundary_tags)
        assert np.array_equal(mesh2.interface_vertices,
                              small_mesh.interface_vertices)
        assert np.array_equal(scalars["u"], s)

    def test_legacy_header(self, small_mesh, tmp_path):
        path = tmp_path / "m.vtk"
        vtkio.write_vtk(path, small_mesh)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"

    def test_reject_foreign_file(self, small_mesh, tmp_path):
        path = tmp_path / "m.vtk"
        vtkio.write_vtk(path, small_mesh)
        lines = path.read_text().splitlines()
        points = lines.index(f"POINTS {small_mesh.num_vertices} double")
        cells = next(i for i, ln in enumerate(lines) if ln.startswith("CELLS"))
        bedges = next(i for i, ln in enumerate(lines)
                      if ln.startswith("METADATA boundary_edges"))
        region = lines.index("SCALARS region int 1") + 2
        i, j, _ = lines[bedges + 1].split()

        def edited(at, text):
            return "\n".join(lines[:at] + [text] + lines[at + 1:])

        for text, message in [
                ("not a vtk file", "not a legacy VTK file"),
                ("\n".join(lines[:20]), "truncated VTK file"),
                ("\n".join(lines).replace("CELLS", "POLYGONS"),
                 "expected a CELLS section"),
                (edited(points + 1, "nan 0.5 0"), "non-positive area nan"),
                (edited(bedges + 1, "99999 1 0"),
                 r"boundary_edges index outside \[0, "),
                (edited(cells + 1, "3 99999 1 2"),
                 r"triangles index outside \[0, "),
                (edited(cells + 1, "4 0 1 2 3"), "malformed VTK file"),
                (edited(points + 1, "0.5 0.5"), "malformed VTK file"),
                (edited(points, "POINTS x double"), "malformed VTK file"),
                (edited(points + 1, "abc 0.5 0"), "malformed VTK file"),
                # an unknown tag would count as exterior, or drop its edges
                # from every Dirichlet set
                (edited(region, "7"), "region holds unknown tag 7"),
                (edited(bedges + 1, f"{i} {j} 9"),
                 "boundary_tags holds unknown tag 9"),
                ("\n".join(lines + [f"POINT_DATA {small_mesh.num_vertices}",
                                    "VECTORS V double"]),
                 "unsupported VTK section: VECTORS")]:
            path.write_text(text + "\n")
            with pytest.raises(MeshError, match=message):
                vtkio.read_vtk(path)


class TestConfig:
    def test_defaults_from_empty_text(self):
        rc = parse_config("")
        assert rc.mesh_h == 0.05
        assert rc.schedule.n_gradient_iters == 20

    def test_round_trip_idempotent(self):
        for rc in (RunConfig(),
                   RunConfig(mesh_load="m.vtk", target_load="t.vtk"),
                   RunConfig(output_dir="runs/100%", mesh_load="a%%b.vtk")):
            text = serialize_config(rc)
            rc2 = parse_config(text)
            assert serialize_config(rc2) == text
            assert rc2 == rc

    def test_sections_parsed(self):
        rc = parse_config("""
[problem]
alpha = 1e-5
[schedule]
max_iters = 7
n_gradient_iters = 3
[mesh]
h = 0.1
shape = ellipse 0.5 0.5 0.25 0.125
[target]
h = 0.08
[output]
output_dir = results
emit_vtk = false
""")
        assert rc.problem.alpha == 1e-5
        assert rc.schedule.max_iters == 7
        assert rc.mesh_h == 0.1
        assert rc.parse_shape().perimeter() > 0
        assert rc.target_h == 0.08
        assert rc.output_dir == "results"
        assert rc.emit_vtk is False

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[mesh]\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown schedule key 'bogus'"):
            parse_config("[schedule]\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown schedule key 'eps'"):
            parse_config("[schedule]\neps = 1.0\n")
        with pytest.raises(ValueError, match="unknown problem key 'bogus'"):
            parse_config("[problem]\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            parse_config("[solver]\n")
        for key in ("project_warmup", "newton_fallback", "residual_norm",
                    "line_search"):
            with pytest.raises(ValueError,
                               match=f"unknown schedule key '{key}'"):
                parse_config(f"[schedule]\n{key} = 1\n")

    @pytest.mark.parametrize("section, key", [("schedule", "eps1"),
                                              ("problem", "mu_in")])
    def test_non_finite_value_rejected(self, section, key):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            parse_config(f"[{section}]\n{key} = nan\n")

    def test_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mesh]\nh = 0.1\n")
        rc = load_config(cfgfile, ["schedule.n_gradient_iters=2",
                                   "schedule.max_iters=5",
                                   "mesh.h=0.2"])
        assert rc.schedule.max_iters == 5
        assert rc.mesh_h == 0.2
        assert load_config(cfgfile, ["mesh.h=0.3  # coarse"]).mesh_h == 0.3
        # a value is taken as written: `%` is not interpolation syntax
        assert load_config(cfgfile, ["output.output_dir=runs/100%"]
                           ).output_dir == "runs/100%"
        with pytest.raises(ValueError):
            load_config(cfgfile, ["noequals"])
        # validated once, with every override applied, in either order:
        # n_gradient_iters=100 alone would exceed the default max_iters
        items = ["schedule.n_gradient_iters=100", "schedule.max_iters=200"]
        for order in (items, items[::-1]):
            rc = load_config(cfgfile, order)
            assert (rc.schedule.n_gradient_iters,
                    rc.schedule.max_iters) == (100, 200)

    def test_readme_configuration(self):
        """README's configuration block parses, and documents every key
        (a commented-out `# key = value` line counts)."""
        block = README.read_text().split("### Configuration", 1)[1]
        block = block.split("```", 2)[1]
        parse_config(block)
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read_string(re.sub(r"^#\s*(\w+\s*=)", r"\1", block, flags=re.M))
        documented = {(s, k) for s in cp.sections() for k in cp[s]}
        assert documented == set(cli._KEYS)

    def test_shape_parsing_errors(self):
        rc = RunConfig(mesh_shape="triangle 1 2 3")
        with pytest.raises(ValueError):
            rc.parse_shape()
        with pytest.raises(ValueError, match="shape must be 'circle"):
            parse_config("", ["mesh.shape="]).parse_shape()

    @pytest.mark.parametrize("text, where", [
        ("[mesh]\nh = abc\n", "mesh key 'h'"),
        ("[schedule]\nmax_iters = 2.5\n", "schedule key 'max_iters'"),
        ("[output]\nemit_vtk = maybe\n", "output key 'emit_vtk'"),
        ("[mesh]\nshape = circle a b c\n", "mesh key 'shape'")],
        ids=["float", "int", "bool", "shape"])
    def test_unreadable_value_names_its_key(self, text, where):
        """A number or boolean that does not read is a ValueError that
        names the section and key it was given for."""
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: "):
            parse_config(text).parse_shape()

    @pytest.mark.parametrize("text, message", [
        ("alpha = 1\n", "no section headers"),
        ("[problem]\nalpha = 1\nalpha = 2\n",
         "option 'alpha' in section 'problem' already exists")])
    def test_unreadable_text_rejected(self, text, message):
        """Text configparser cannot read is a ValueError that names the
        problem, like every other refused config."""
        with pytest.raises(ValueError, match=f"malformed config: .*{message}"):
            parse_config(text)


class TestCommands:
    def test_generate_target(self, tmp_path, capsys):
        rcode = cli.main(["-s", f"output.output_dir={tmp_path}",
                          "-s", "target.h=0.1", "generate-target"])
        assert rcode == 0
        out = capsys.readouterr().out
        assert "target written" in out
        mesh, scalars = vtkio.read_vtk(tmp_path / "target.vtk")
        assert "z" in scalars
        meta = (tmp_path / "metadata.txt").read_text()
        assert "[checksums]" in meta and "target.vtk" in meta

    def test_optimize_small_run(self, tmp_path, capsys):
        rcode = cli.main([
            "-s", f"output.output_dir={tmp_path}",
            "-s", "mesh.h=0.1", "-s", "target.h=0.05",
            "-s", "schedule.n_gradient_iters=2",
            "-s", "schedule.max_iters=4",
            "optimize"])
        assert rcode == 0
        hist = (tmp_path / "history.txt").read_text().splitlines()
        assert hist[0] == "# iteration objective grad_norm residual step mode"
        rows = [ln.split() for ln in hist if not ln.startswith("#")]
        assert len(rows) == 5
        for row in rows:
            assert len(row) == 6
            assert row[5] in ("gradient", "newton")
        assert [int(r[0]) for r in rows] == list(range(5))
        # objective decreased overall
        assert float(rows[-1][1]) < float(rows[0][1])
        mesh, scalars = vtkio.read_vtk(tmp_path / "final_mesh.vtk")
        assert set(scalars) == {"u", "lambda", "z"}

    def test_optimize_reuses_saved_target(self, tmp_path, capsys):
        out1 = tmp_path / "t"
        assert cli.main(["-s", f"output.output_dir={out1}",
                         "-s", "target.h=0.1", "generate-target"]) == 0
        out2 = tmp_path / "o"
        rcode = cli.main([
            "-s", f"output.output_dir={out2}",
            "-s", f"target.load={out1 / 'target.vtk'}",
            "-s", "mesh.h=0.1",
            "-s", "schedule.n_gradient_iters=1",
            "-s", "schedule.max_iters=2",
            "optimize"])
        assert rcode == 0

    def test_optimize_refuses_target_without_z(self, small_mesh, tmp_path):
        """A `target.load` file without the point scalar z is refused by
        name, not with a bare KeyError."""
        path = tmp_path / "target.vtk"
        vtkio.write_vtk(path, small_mesh,
                        point_scalars={"u": np.zeros(small_mesh.num_vertices)})
        with pytest.raises(MeshError,
                           match=r"target\.vtk has no point scalar 'z'"):
            cli.main(["-s", f"output.output_dir={tmp_path / 'o'}",
                      "-s", f"target.load={path}", "optimize"])

    def test_optimize_aborted_at_iteration_0(self, tmp_path, capsys,
                                             monkeypatch):
        """A run that aborts before its first row writes its files,
        prints its note, with no last-row summary, and exits 1."""
        real, calls = model.solve_state, []

        def failing(ops):
            calls.append(1)
            if len(calls) == 2:         # the first is the target's
                raise fem.SingularSystemError("injected")
            return real(ops)

        monkeypatch.setattr(model, "solve_state", failing)
        rcode = cli.main([
            "-s", f"output.output_dir={tmp_path}",
            "-s", "mesh.h=0.1", "-s", "target.h=0.1",
            "-s", "output.emit_vtk=false", "optimize"])
        assert rcode == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "note: aborted at iteration 0 (state): injected"]
        hist = (tmp_path / "history.txt").read_text().splitlines()
        assert hist[1:] == ["# aborted at iteration 0 (state): injected"]
        assert "history.txt" in (tmp_path / "metadata.txt").read_text()

    def test_optimize_aborted_writes_no_final_mesh(self, tmp_path, capsys,
                                                   monkeypatch):
        """A run aborted at the transfer stage, with `emit_vtk` at its
        default, writes `history.txt` and `metadata.txt` but no
        `final_mesh.vtk`, which would locate the last iterate again."""
        real, calls = model.transfer_target, []

        def failing(target, mesh):
            calls.append(1)
            if len(calls) >= 2:
                raise model.PointOutsideMesh("injected")
            return real(target, mesh)

        monkeypatch.setattr(model, "transfer_target", failing)
        rcode = cli.main([
            "-s", f"output.output_dir={tmp_path}",
            "-s", "mesh.h=0.1", "-s", "target.h=0.1", "optimize"])
        assert rcode == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "note: aborted at iteration 1 (transfer): injected"
        assert len(calls) == 2
        assert not (tmp_path / "final_mesh.vtk").exists()
        meta = (tmp_path / "metadata.txt").read_text()
        assert "history.txt" in meta and "final_mesh.vtk" not in meta

    def test_pseudo_demo_table(self, capsys):
        assert cli.main(["pseudo-demo"]) == 0
        out = capsys.readouterr().out
        assert "min-norm solution" in out
        # six eps rows with halving ratios near 0.5
        ratio_lines = [ln for ln in out.splitlines()[2:] if ln.strip()]
        assert len(ratio_lines) == 6
