"""Line-oriented ASCII mesh format ".nvbm".

Layout::

    nvbm 1
    <nv> <ne>
    x y                                  (nv lines)
    v0 v1 v2 gen ancestor red_son(0|1)   (ne lines)

Coordinates are written with Python's shortest round-trip representation,
so write -> read reproduces the mesh bit-identically, except for its
``vertex_parents``: the format does not hold them, and a mesh read from a
file records no bisection parents of its vertices.  The reference edge
of each element is implied as (v0, v1).  The parser rejects malformed and
non-conforming input with line-numbered diagnostics.

The writer keeps no state, and it writes each block 2**14 rows at a time,
gathering the rows from a table of fixed-width byte fields.  A field ends
in a space, with 0 bytes where nothing is written; the last space of a row
becomes the newline and the non-zero bytes are the text.  The vertex table
holds the ``repr`` of each distinct bit pattern (``-0.0 == 0.0``, but their
reprs differ): NVB makes every vertex an edge's midpoint, so a run's
coordinates take few values.  The element table holds the ``%d`` fields of
0..max (a sign, digits from one division by the powers of ten) when every
field lies in 0..size-1, as in real meshes; any other mesh formats its
fields one by one.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

import numpy as np

from .mesh import _BLOCK, Mesh, MeshError, validate_mesh

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
    f.writelines(_vertex_blocks(mesh.vertices))
    f.writelines(_element_blocks((*mesh.elements.T, mesh.gen, mesh.ancestor,
                                  mesh.red_son)))


def _vertex_blocks(vertices: np.ndarray) -> Iterator[str]:
    """The ``"%r %r"`` lines of an (n, 2) float64 array, ``_BLOCK`` rows a
    block, gathered from the reprs of its distinct bit patterns."""
    bits, ids = np.unique(vertices.view(np.uint64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=bytes)
    table = np.full((len(bits), reprs.itemsize + 1), ord(" "), dtype=np.uint8)
    table[:, :-1] = reprs[:, None].view(np.uint8)
    ids = ids.reshape(-1, 2)             # its shape differs across numpy versions
    for lo in range(0, len(ids), _BLOCK):
        yield _text(np.take(table, ids[lo:lo + _BLOCK], axis=0))


def _element_blocks(columns: tuple[np.ndarray, ...]) -> Iterator[str]:
    """The ``%d`` text of the rows of equal-length integer columns: a line
    per row, its fields apart by single spaces, ``_BLOCK`` rows a block."""
    m = len(columns[0])
    if m == 0:
        return
    low = min(int(c.min()) for c in columns)
    high = max(int(c.max()) for c in columns)
    # the fields of real meshes: no table longer than the fields it serves
    table = (_fields(np.arange(high + 1)) if low >= 0 and high < m * len(columns)
             else None)
    for lo in range(0, m, _BLOCK):
        rows = np.column_stack([c[lo:lo + _BLOCK] for c in columns])
        yield _text(_fields(rows.ravel()).reshape(*rows.shape, -1)
                    if table is None else np.take(table, rows, axis=0))


def _text(buf: np.ndarray) -> str:
    """The text of an (n, k, w) uint8 array of fields: the last space of a
    row becomes its newline and the 0 bytes are dropped."""
    buf[:, -1, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


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
        for t in np.flatnonzero(rows[:, 4] != np.arange(ne))[:1].tolist():
            fail(3 + nv + t, f"element {t} of an initial mesh has ancestor id "
                 f"{rows[t, 4]}, not its own id")

    # with the ancestor check above, validate_mesh covers what validate=True
    # would check, and its violations name their elements' lines
    mesh = Mesh(vertices, rows[:, :3], gen=rows[:, 3], ancestor=rows[:, 4],
                red_son=rows[:, 5], validate=False)
    report = validate_mesh(mesh)
    if not report.ok:
        v = report.violations[0]
        lineno = None
        if v.kind in ("inverted_element", "duplicate_element", "folded_edge",
                      "overshared_edge"):
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
