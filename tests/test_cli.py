import json

import numpy as np
import pytest

from deformopt import cli, model, vtkio
from deformopt.cli import (RunConfig, load_config, parse_config,
                           serialize_config)
from deformopt.mesh import InclusionShape, generate_mesh


@pytest.fixture(scope="module")
def small_mesh():
    return generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)


class TestVtkRoundTrip:
    def test_mesh_and_fields_bit_exact(self, small_mesh, tmp_path):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(small_mesh.num_vertices)
        v = rng.standard_normal((small_mesh.num_vertices, 2))
        path = tmp_path / "m.vtk"
        vtkio.write_vtk(path, small_mesh, point_scalars={"u": s},
                        point_vectors={"V": v})
        mesh2, scalars, vectors = vtkio.read_vtk(path)
        assert np.array_equal(mesh2.vertices, small_mesh.vertices)
        assert np.array_equal(mesh2.triangles, small_mesh.triangles)
        assert np.array_equal(mesh2.region, small_mesh.region)
        assert np.array_equal(mesh2.boundary_tags, small_mesh.boundary_tags)
        assert np.array_equal(mesh2.interface_vertices,
                              small_mesh.interface_vertices)
        assert np.array_equal(scalars["u"], s)
        assert np.array_equal(vectors["V"], v)

    def test_legacy_header(self, small_mesh, tmp_path):
        path = tmp_path / "m.vtk"
        vtkio.write_vtk(path, small_mesh)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"

    def test_reject_foreign_file(self, tmp_path):
        bad = tmp_path / "x.vtk"
        bad.write_text("not a vtk file\n")
        with pytest.raises(Exception):
            vtkio.read_vtk(bad)


class TestConfig:
    def test_defaults_from_empty_text(self):
        rc = parse_config("")
        assert rc.mesh_h == 0.05
        assert rc.schedule.n_gradient_iters == 20

    def test_round_trip_idempotent(self):
        rc = RunConfig()
        text = serialize_config(rc)
        rc2 = parse_config(text)
        assert serialize_config(rc2) == text

    def test_sections_parsed(self):
        rc = parse_config("""
[problem]
alpha = 1e-5
[schedule]
max_iters = 7
n_gradient_iters = 3
line_search = backtracking
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
        assert rc.schedule.line_search == "backtracking"
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
        with pytest.raises(ValueError):
            load_config(cfgfile, ["noequals"])
        # validated once, with every override applied, in either order:
        # n_gradient_iters=100 alone would exceed the default max_iters
        items = ["schedule.n_gradient_iters=100", "schedule.max_iters=200"]
        for order in (items, items[::-1]):
            rc = load_config(cfgfile, order)
            assert (rc.schedule.n_gradient_iters,
                    rc.schedule.max_iters) == (100, 200)

    def test_shape_parsing_errors(self):
        rc = RunConfig(mesh_shape="triangle 1 2 3")
        with pytest.raises(ValueError):
            rc.parse_shape()


class TestCommands:
    def test_generate_target(self, tmp_path, capsys):
        rcode = cli.main(["-s", f"output.output_dir={tmp_path}",
                          "-s", "target.h=0.1", "generate-target"])
        assert rcode == 0
        out = capsys.readouterr().out
        assert "target written" in out
        mesh, scalars, _ = vtkio.read_vtk(tmp_path / "target.vtk")
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
        mesh, scalars, _ = vtkio.read_vtk(tmp_path / "final_mesh.vtk")
        assert set(scalars) == {"u", "lambda", "z"}

    def test_optimize_backtracking_gradient_steps(self, tmp_path, capsys):
        """`schedule.line_search = backtracking` reaches the warm-up of
        `optimize`: each gradient step is gradient_step / 2^m."""
        rcode = cli.main([
            "-s", f"output.output_dir={tmp_path}",
            "-s", "mesh.h=0.1", "-s", "target.h=0.05",
            "-s", "schedule.n_gradient_iters=2",
            "-s", "schedule.max_iters=4",
            "-s", "schedule.line_search=backtracking",
            "optimize"])
        assert rcode == 0
        rows = [ln.split() for ln in
                (tmp_path / "history.txt").read_text().splitlines()
                if not ln.startswith("#")]
        t0 = RunConfig().schedule.gradient_step
        steps = [float(r[4]) for r in rows if r[5] == "gradient"]
        assert len(steps) == 2
        assert all(t in [t0 * 0.5 ** m for m in range(31)] for t in steps)
        assert float(rows[-1][1]) < float(rows[0][1])

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

    def test_pseudo_demo_table(self, capsys):
        assert cli.main(["pseudo-demo"]) == 0
        out = capsys.readouterr().out
        assert "min-norm solution" in out
        # six eps rows with halving ratios near 0.5
        ratio_lines = [ln for ln in out.splitlines()[2:] if ln.strip()]
        assert len(ratio_lines) == 6
