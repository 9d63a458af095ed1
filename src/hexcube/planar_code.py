"""planar_code stream reader/writer and DOT export.

Format: optional ASCII header ``>>planar_code<<``, then per graph one byte
with the vertex count n (n < 256), followed for each vertex by its
neighbors as 1-based bytes in rotation order, each list terminated by a
zero byte.
"""

from __future__ import annotations

from typing import BinaryIO, Iterable

from .plane_graph import MapError, PlaneGraph

HEADER = b">>planar_code<<"


class PlanarCodeError(ValueError):
    """Malformed planar_code data; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def write_planar_code(graphs: Iterable[PlaneGraph], fp: BinaryIO) -> None:
    """Write the header and every graph; all graphs are encoded before the
    first byte is written, so a graph with n >= 256 leaves fp untouched."""
    fp.write(HEADER + b"".join(map(graph_to_planar_code, graphs)))


def graph_to_planar_code(g: PlaneGraph) -> bytes:
    n = g.n_vertices
    if n >= 256:
        raise ValueError("planar_code is limited to graphs with n < 256")
    out = bytearray([n])
    for nbrs in g.neighbors:
        # start each rotation at the smallest neighbor so that writing is
        # a function of the abstract map and write(read(x)) == x
        k = nbrs.index(min(nbrs))
        out.extend(w + 1 for w in nbrs[k:] + nbrs[:k])
        out.append(0)
    return bytes(out)


def read_planar_code(fp: BinaryIO) -> list[PlaneGraph]:
    """Parse a whole stream; raises PlanarCodeError with a byte offset."""
    data = fp.read()
    pos = 0
    if data.startswith(b">>"):
        end = data.find(b"<<", 2)
        if end < 0:
            raise PlanarCodeError("unterminated header", 0)
        head = data[: end + 2]
        if not head.startswith(b">>planar_code"):
            raise PlanarCodeError(f"unsupported header {head!r}", 0)
        pos = end + 2
    graphs = []
    while pos < len(data):
        graphs.append(_read_one(data, pos))
        pos = graphs[-1][1]
    return [g for g, _ in graphs]


def _read_one(data: bytes, pos: int) -> tuple[PlaneGraph, int]:
    start = pos
    n = data[pos]
    pos += 1
    if n == 0:
        raise PlanarCodeError("vertex count 0", start)
    neighbors = []
    for v in range(n):
        row = []
        while True:
            if pos >= len(data):
                raise PlanarCodeError(
                    f"stream ends inside the adjacency list of vertex {v}", pos
                )
            b = data[pos]
            pos += 1
            if b == 0:
                break
            if b > n:
                raise PlanarCodeError(f"neighbor byte {b} exceeds n={n}", pos - 1)
            row.append(b - 1)
        neighbors.append(row)
    try:
        return PlaneGraph.from_rotations(neighbors), pos
    except MapError as exc:
        raise PlanarCodeError(f"invalid map: {exc}", start) from exc


def to_dot(g: PlaneGraph) -> str:
    """Simple undirected DOT rendering (no coordinates)."""
    lines = ["graph G {"]
    for v in range(g.n_vertices):
        lines.append(f"  {v};")
    for e in range(g.n_edges):
        u, v = g.edge_endpoints(e)
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
