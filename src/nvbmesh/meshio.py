"""Line-oriented ASCII mesh format ".nvbm".

Layout::

    nvbm 1
    <nv> <ne>
    x y                                  (nv lines)
    v0 v1 v2 gen ancestor red_son(0|1)   (ne lines)

Coordinates are written with Python's shortest round-trip representation,
so write -> read reproduces the mesh bit-identically.  The reference edge
of each element is implied as (v0, v1).  The parser rejects malformed and
non-conforming input with line-numbered diagnostics.

A mesh loaded from a file knows red history only through its red_son
flags; bisec5 history is not represented in the format and is assumed
absent.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .mesh import Mesh, MeshError, validate_mesh

FORMAT_TAG = "nvbm"
FORMAT_VERSION = 1
_INT64 = np.iinfo(np.int64)


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in .nvbm format."""
    with open(path, "w", encoding="ascii") as f:
        dump_mesh(mesh, f)


def dump_mesh(mesh: Mesh, f) -> None:
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}\n",
             f"{mesh.n_vertices} {mesh.n_elements}\n"]
    lines += [f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()]
    lines += [f"{v0} {v1} {v2} {g} {a} {r:d}\n"
              for (v0, v1, v2), g, a, r in zip(
                  mesh.elements.tolist(), mesh.gen.tolist(),
                  mesh.ancestor.tolist(), mesh.red_son.tolist())]
    f.write("".join(lines))


def dumps_mesh(mesh: Mesh) -> str:
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    return buf.getvalue()


def read_mesh(path) -> Mesh:
    """Parse a .nvbm file; raises MeshError with line numbers on bad input."""
    text = Path(path).read_text(encoding="ascii")
    return loads_mesh(text, source=str(path))


def loads_mesh(text: str, source: str = "<string>") -> Mesh:
    lines = text.splitlines()

    def fail(lineno: int, msg: str):
        raise MeshError(f"{source}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_TAG:
        fail(1, f"expected header '{FORMAT_TAG} {FORMAT_VERSION}'")
    if header[1] != str(FORMAT_VERSION):
        fail(1, f"unsupported format version {header[1]!r}")
    if len(lines) < 2:
        fail(2, "missing count line")
    counts = lines[1].split()
    if len(counts) != 2:
        fail(2, "expected '<nv> <ne>'")
    try:
        nv, ne = int(counts[0]), int(counts[1])
    except ValueError:
        fail(2, "vertex/element counts must be integers")
    if nv <= 0 or ne <= 0:
        fail(2, "vertex and element counts must be positive")
    if len(lines) < 2 + nv + ne:
        fail(len(lines) + 1, f"expected {2 + nv + ne} lines, found {len(lines)}")

    vertices = []
    for i in range(nv):
        lineno = 3 + i
        parts = lines[2 + i].split()
        if len(parts) != 2:
            fail(lineno, "expected 'x y'")
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError:
            fail(lineno, f"bad coordinate {lines[2 + i]!r}")
    finite = np.isfinite(np.array(vertices)).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        fail(3 + i, f"non-finite coordinate {lines[2 + i]!r}")

    elements, gens, ancestors, reds = [], [], [], []
    for i in range(ne):
        lineno = 3 + nv + i
        parts = lines[2 + nv + i].split()
        if len(parts) != 6:
            fail(lineno, "expected 'v0 v1 v2 gen ancestor red_son'")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            fail(lineno, f"bad element line {lines[2 + nv + i]!r}")
        if min(vals) < _INT64.min or max(vals) > _INT64.max:
            fail(lineno, "integer field out of the int64 range")
        v0, v1, v2, g, anc, red = vals
        for v in (v0, v1, v2):
            if not 0 <= v < nv:
                fail(lineno, f"vertex index {v} out of range 0..{nv - 1}")
        if g < 0:
            fail(lineno, f"negative generation {g}")
        if red not in (0, 1):
            fail(lineno, f"red_son must be 0 or 1, got {red}")
        elements.append((v0, v1, v2))
        gens.append(g)
        ancestors.append(anc)
        reds.append(bool(red))

    for i, anc in enumerate(ancestors):
        if anc < 0:
            fail(3 + nv + i, f"ancestor id {anc} is negative")

    try:
        mesh = Mesh(vertices, elements, gen=gens,
                    ancestor=ancestors, red_son=reds, validate=True)
    except MeshError as exc:
        raise MeshError(f"{source}: non-conforming mesh: {exc}") from exc

    report = validate_mesh(mesh)
    if not report.ok:
        v = report.violations[0]
        lineno = None
        if v.kind in ("inverted_element",) and v.ids:
            lineno = 3 + nv + v.ids[0]
        elif v.kind in ("duplicate_vertex", "orphan_vertex", "bad_coordinate") and v.ids:
            lineno = 3 + v.ids[0]
        where = f"{source}:{lineno}: " if lineno else f"{source}: "
        raise MeshError(f"{where}non-conforming mesh: {v.detail} "
                        f"({len(report.violations)} violation(s) total)")
    return mesh
