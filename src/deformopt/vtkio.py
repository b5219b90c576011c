"""Legacy ASCII VTK unstructured-grid export/import for meshes and fields.

Only the subset used here is supported: POINTS, CELLS of triangles,
CELL_DATA region tags and POINT_DATA scalars.  Floats are written
with 17 significant digits so a write/read round trip is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, MeshError


def _fmt(x):
    return format(float(x), ".17g")


def write_vtk(path, mesh: Mesh, point_scalars=None, title="deformopt mesh"):
    """Write mesh plus optional named nodal scalars to a legacy VTK file.

    point_scalars is a dict name -> array.
    """
    n = mesh.num_vertices
    ne = mesh.num_triangles
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    for p in mesh.vertices:
        lines.append(f"{_fmt(p[0])} {_fmt(p[1])} 0")
    lines.append(f"CELLS {ne} {4 * ne}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    lines.append(f"CELL_TYPES {ne}")
    lines.extend(["5"] * ne)
    lines.append(f"CELL_DATA {ne}")
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(r)) for r in mesh.region)
    if point_scalars:
        lines.append(f"POINT_DATA {n}")
        for name, vals in point_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in np.asarray(vals))
    # Connectivity metadata VTK cannot express; appended as comments so a
    # written mesh reloads with boundary tags and interface ordering intact.
    lines.append(f"METADATA boundary_edges {mesh.boundary_edges.shape[0]}")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{i} {j} {tag}")
    lines.append(f"METADATA interface_vertices {mesh.interface_vertices.size}")
    lines.append(" ".join(str(int(i)) for i in mesh.interface_vertices))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vtk(path):
    """Read a file written by write_vtk; returns (mesh, scalars).
    A file of another layout, a truncated one, or one whose counts, numbers
    or rows are malformed raises MeshError."""
    with open(path) as fh:
        tokens_lines = fh.read().splitlines()
    try:
        return _parse(tokens_lines)
    except MeshError:
        raise
    except (ValueError, IndexError) as exc:    # a non-number, a ragged row
        raise MeshError(f"malformed VTK file: {exc}") from exc


def _parse(tokens_lines):
    idx = 0

    def line():
        nonlocal idx
        if idx == len(tokens_lines):
            raise MeshError(f"truncated VTK file: {len(tokens_lines)} lines")
        idx += 1
        return tokens_lines[idx - 1]

    def count(keyword):
        """The count of the `keyword count type` header on the next line."""
        parts = line().split()
        if len(parts) != 3 or parts[0] != keyword:
            raise MeshError(f"expected a {keyword} section, got "
                            f"{' '.join(parts)!r}")
        return int(parts[1])

    header = line()
    if not header.startswith("# vtk"):
        raise MeshError("not a legacy VTK file")
    line()  # title
    if line().strip() != "ASCII":
        raise MeshError("only ASCII VTK is supported")
    if line().strip() != "DATASET UNSTRUCTURED_GRID":
        raise MeshError("only unstructured grids are supported")

    n = count("POINTS")
    pts = np.array([line().split() for _ in range(n)], dtype=float)[:, :2]

    ne = count("CELLS")
    tris = np.array([line().split()[1:] for _ in range(ne)], dtype=np.int64)
    line()  # CELL_TYPES
    for _ in range(ne):
        line()

    region = None
    scalars = {}
    bedges = btags = ifv = None
    while idx < len(tokens_lines):
        raw = line().strip()
        if not raw:
            continue
        parts = raw.split()
        if parts[0] == "CELL_DATA":
            pass
        elif parts[0] == "SCALARS" and region is None and parts[1] == "region":
            line()  # LOOKUP_TABLE
            region = np.array([line() for _ in range(ne)], dtype=np.int64)
        elif parts[0] == "POINT_DATA":
            pass
        elif parts[0] == "SCALARS":
            line()
            scalars[parts[1]] = np.array([line() for _ in range(n)], dtype=float)
        elif parts[0] == "METADATA" and parts[1] == "boundary_edges":
            nb = int(parts[2])
            data = np.array([line().split() for _ in range(nb)], dtype=np.int64)
            bedges, btags = data[:, :2], data[:, 2]
        elif parts[0] == "METADATA" and parts[1] == "interface_vertices":
            ifv = np.array(line().split(), dtype=np.int64)
        else:
            raise MeshError(f"unsupported VTK section: {raw}")

    if region is None or bedges is None or ifv is None:
        raise MeshError("VTK file lacks region tags or connectivity metadata")
    return Mesh(pts, tris, bedges, btags, region, ifv), scalars
