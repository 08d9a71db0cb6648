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

The writer formats the vertex block with one ``%`` call over the Python
floats, ``"%r %r"`` a line (``%r`` is ``repr``).  It keeps the vertex block
of the last mesh it wrote, and a mesh whose leading vertices have the same
bit patterns formats only the vertices past them: the meshes of a
refinement run share their vertices as a prefix.  Bits, not values, decide,
since ``-0.0 == 0.0`` while their reprs differ.  Any other mesh is
formatted whole, so the bytes never depend on what was written before.

The element block is one numpy kernel with the bytes of ``%d``.  Each
integer becomes a fixed-width byte field (sign, right-aligned digits from
one division by the powers of ten, a space) with 0 bytes where ``%d``
writes nothing; the last space of a row becomes the newline and the
non-zero bytes are the text.  When every field lies in 0..size-1, as the
vertex ids, generations, ancestors and flags of real meshes do, the
distinct values 0..max are formatted once and the rows gathered from that
table; any other block (a loaded or unvalidated mesh with large or
negative fields) formats its fields one by one.
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
    f.write(f"{FORMAT_TAG} {FORMAT_VERSION}\n"
            f"{mesh.n_vertices} {mesh.n_elements}\n")
    f.write(_vertex_lines(mesh.vertices))
    f.write(_element_lines(np.column_stack((mesh.elements, mesh.gen,
                                            mesh.ancestor, mesh.red_son))))


def _element_lines(rows: np.ndarray) -> str:
    """The text of ``%d`` over an int64 array: a line per row, its fields
    apart by single spaces."""
    if rows.size == 0:
        return ""
    if rows.min() >= 0 and rows.max() < rows.size:
        # the fields of real meshes: no table longer than the fields it serves
        buf = np.take(_fields(np.arange(rows.max() + 1)), rows, axis=0)
    else:
        buf = _fields(rows.ravel()).reshape(*rows.shape, -1)
    buf[:, -1, -1] = ord("\n")
    return buf[buf != 0].tobytes().decode("ascii")


def _fields(x: np.ndarray) -> np.ndarray:
    """The fields ``"%d "`` of an int64 vector as a (len(x), w + 2) uint8
    array: a sign byte, w right-aligned digits and a space, with 0 bytes
    where ``%d`` writes nothing."""
    neg = x < 0
    mag = x.astype(np.uint64)
    mag[neg] = -mag[neg]                 # through uint64: -(-2**63) fits
    w = len(str(int(mag.max())))
    if w <= 9:
        mag = mag.astype(np.uint32)
    digits = mag[:, None] // 10 ** np.arange(w - 1, -1, -1, dtype=mag.dtype)
    out = np.zeros((len(x), w + 2), dtype=np.uint8)
    out[:, 1:-1] = digits % 10 + ord("0")
    out[:, 1:-2][digits[:, :-1] == 0] = 0    # leading zeros
    out[neg, 0] = ord("-")
    out[:, -1] = ord(" ")
    return out


# bit patterns and lines of the vertex block dump_mesh wrote last
_last_vertices = (np.empty((0, 2), dtype=np.uint64), "")


def _vertex_lines(vertices: np.ndarray) -> str:
    """The vertex block of dump_mesh, reusing the last block's lines for a
    bit-identical prefix; a mesh's vertices never change, so the last
    block's bits are a view of them."""
    global _last_vertices
    bits = vertices.view(np.uint64)
    done, text = _last_vertices
    k = len(done)
    if not np.array_equal(bits[:k], done):   # unequal shapes if len(bits) < k
        k, text = 0, ""
    new = vertices[k:]
    text += ("%r %r\n" * len(new)) % tuple(new.ravel().tolist())
    _last_vertices = (bits, text)
    return text


def dumps_mesh(mesh: Mesh) -> str:
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    return buf.getvalue()


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then a line per row.  A field is its
    ``str`` (a float's shortest round-trip repr), a bool 0 or 1 and None
    an empty field."""
    return header + "\n" + "".join(
        ",".join(["" if v is None else str(int(v) if isinstance(v, bool) else v)
                  for v in row]) + "\n" for row in rows)


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

    vertices = _read_block(lines[2:2 + nv], 2, np.float64)
    if vertices is None or not np.isfinite(vertices).all():
        vertices = []
        for lineno, line in enumerate(lines[2:2 + nv], start=3):
            parts = line.split()
            if len(parts) != 2:
                fail(lineno, "expected 'x y'")
            try:
                vertices.append((float(parts[0]), float(parts[1])))
            except ValueError:
                fail(lineno, f"bad coordinate {line!r}")
        finite = np.isfinite(np.array(vertices)).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            fail(3 + i, f"non-finite coordinate {lines[2 + i]!r}")

    rows = _read_block(lines[2 + nv:2 + nv + ne], 6, np.int64)
    # v0 v1 v2 gen ancestor red_son in range; int64's top may be a clamp
    if rows is None or not (rows <= [nv - 1] * 3 + [_INT64.max - 1] * 2 + [1]).all():
        rows = []
        for lineno, line in enumerate(lines[2 + nv:2 + nv + ne], start=3 + nv):
            parts = line.split()
            if len(parts) != 6:
                fail(lineno, "expected 'v0 v1 v2 gen ancestor red_son'")
            try:
                vals = [int(p) for p in parts]
            except ValueError:
                fail(lineno, f"bad element line {line!r}")
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
            rows.append(vals)
        for i, (*_, anc, _red) in enumerate(rows):
            if anc < 0:
                fail(3 + nv + i, f"ancestor id {anc} is negative")
        rows = np.array(rows, dtype=np.int64)

    if not rows[:, 3].any():    # an initial mesh: its elements are the ancestors
        over = np.flatnonzero(rows[:, 4] >= ne)
        if over.size:
            fail(3 + nv + over[0], f"ancestor id {rows[over[0], 4]} out of "
                 f"range 0..{ne - 1}")

    # with the ancestor check above, validate_mesh covers what validate=True
    # would check, and its violations name their elements' lines
    mesh = Mesh(vertices, rows[:, :3], gen=rows[:, 3], ancestor=rows[:, 4],
                red_son=rows[:, 5], validate=False)
    report = validate_mesh(mesh)
    if not report.ok:
        v = report.violations[0]
        lineno = None
        if v.kind in ("inverted_element", "duplicate_element", "overshared_edge"):
            lineno = 3 + nv + v.ids[-1]
        elif v.kind in ("duplicate_vertex", "orphan_vertex", "bad_coordinate"):
            lineno = 3 + v.ids[-1]
        elif v.kind == "hanging_node":  # ids (j, a, b): vertex j is at fault
            lineno = 3 + v.ids[0]
        where = f"{source}:{lineno}: " if lineno else f"{source}: "
        raise MeshError(f"{where}non-conforming mesh: {v.detail} "
                        f"({len(report.violations)} violation(s) total)")
    return mesh


def _read_block(lines: list[str], width: int, dtype) -> np.ndarray | None:
    """The (n, width) array of a block laid out as dump_mesh writes it, or None.

    The lines must be ASCII, ``width`` fields apart by single spaces, so that
    the fields are the runs of bytes above 32.  Float fields convert as
    float() does.  Integer fields must be ASCII digits, which np.fromstring
    reads as int() does, except that it clamps a run beyond int64 to its top.
    """
    text = "\n".join(lines) + "\n"
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    sep = raw <= 32
    kinds = raw[sep]
    if (kinds.size != width * len(lines) or sep[0] or (sep[1:] & sep[:-1]).any()
            or (kinds.reshape(-1, width) != [32] * (width - 1) + [10]).any()):
        return None
    if dtype == np.float64:
        try:
            return np.array(text.split(), dtype=np.float64).reshape(-1, width)
        except ValueError:
            return None
    if (((raw < 48) | (raw > 57)) & ~sep).any():
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, width)
