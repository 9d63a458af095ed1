"""Constructors for the polyhedral graphs used throughout the library.

Everything is built from explicit face lists (or by truncating one of
them), so each constructor is independent of the generator and of the
Goldberg-Coxeter machinery and can serve as a cross-check for both.
"""

from __future__ import annotations

import re

from .embedding import InvariantError
from .plane_graph import PlaneGraph, truncate

# Faces oriented consistently (interior on the left); the validator in
# PlaneGraph.from_faces rejects any inconsistent cycle set.
CUBE_FACES: tuple[tuple[int, ...], ...] = (
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)

OCTAHEDRON_FACES: tuple[tuple[int, ...], ...] = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (5, 2, 1),
    (5, 3, 2),
    (5, 4, 3),
    (5, 1, 4),
)

TETRAHEDRON_FACES: tuple[tuple[int, ...], ...] = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 1),
    (1, 3, 2),
)


def tetrahedron() -> PlaneGraph:
    return PlaneGraph.from_faces(TETRAHEDRON_FACES)


def cube() -> PlaneGraph:
    return PlaneGraph.from_faces(CUBE_FACES)


def octahedron() -> PlaneGraph:
    return PlaneGraph.from_faces(OCTAHEDRON_FACES)


def prism(k: int) -> PlaneGraph:
    """k-gonal prism: two k-cycles joined by a rung at every vertex."""
    if k < 3:
        raise ValueError("prism needs k >= 3")
    bottom = tuple(range(k))
    top = tuple(range(k, 2 * k))
    faces = [tuple(reversed(bottom)), top]
    for i in range(k):
        j = (i + 1) % k
        faces.append((bottom[i], bottom[j], top[j], top[i]))
    return PlaneGraph.from_faces(faces)


def icosahedron() -> PlaneGraph:
    up = [1, 2, 3, 4, 5]
    lo = [6, 7, 8, 9, 10]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces.append((0, up[i], up[j]))
        faces.append((up[i], lo[i], up[j]))
        faces.append((lo[i], lo[j], up[j]))
        faces.append((11, lo[j], lo[i]))
    return PlaneGraph.from_faces(faces)


def truncated_tetrahedron() -> PlaneGraph:
    return truncate(tetrahedron())


def truncated_octahedron() -> PlaneGraph:
    return truncate(octahedron())


# -- chamfered cube and its twist ----------------------------------------
#
# Chamfering shrinks each cube face to a smaller square (one new vertex per
# face corner) and turns each cube edge into a hexagon.  Vertex labels:
# cube corners stay as ints, shrunk-square corners are ('s', face, corner).


def _cube_directed_faces() -> dict[tuple[int, int], int]:
    owner = {}
    for fi, cyc in enumerate(CUBE_FACES):
        for i in range(4):
            owner[(cyc[i], cyc[(i + 1) % 4])] = fi
    return owner


def _cube_edges() -> list[tuple[int, int]]:
    seen = set()
    out = []
    for cyc in CUBE_FACES:
        for i in range(4):
            u, v = cyc[i], cyc[(i + 1) % 4]
            if (v, u) not in seen:
                seen.add((u, v))
                out.append((u, v))
    return out


def _chamfered_cube_faces() -> list[tuple]:
    owner = _cube_directed_faces()
    faces: list[tuple] = []
    for fi, cyc in enumerate(CUBE_FACES):
        faces.append(tuple(("s", fi, v) for v in cyc))
    for (u, v) in _cube_edges():
        f1 = owner[(u, v)]
        f2 = owner[(v, u)]
        faces.append((u, ("s", f2, u), ("s", f2, v), v, ("s", f1, v), ("s", f1, u)))
    return faces


def chamfered_cube() -> PlaneGraph:
    return PlaneGraph.from_faces(_chamfered_cube_faces())


def _twisted_faces(shift: int) -> list[tuple]:
    """Cut the chamfered cube along the hexagon belt around a main diagonal
    and reglue the two caps with the belt arcs shifted.

    shift 0 reassembles the chamfered cube; odd shifts give its twist.
    """
    pole_a, pole_b = 0, 6  # antipodal cube corners
    owner = _cube_directed_faces()
    nbrs_a = {v for (u, v) in owner if u == pole_a}
    faces_at_a = {fi for (uv, fi) in owner.items() if pole_a in uv}

    def a_side(label) -> bool:
        if isinstance(label, int):
            return label == pole_a or label in nbrs_a
        return label[1] in faces_at_a

    equatorial = []
    caps = []
    for f in _chamfered_cube_faces():
        originals = [x for x in f if isinstance(x, int)]
        if len(originals) == 2 and pole_a not in originals and pole_b not in originals:
            equatorial.append(f)
        else:
            caps.append(f)
    if len(equatorial) != 6:
        raise InvariantError(f"chamfered cube has {len(equatorial)} belt hexagons, not 6")

    # order the belt hexagons cyclically (consecutive ones share an edge)
    def edge_set(cyc):
        return {frozenset((cyc[i], cyc[(i + 1) % len(cyc)])) for i in range(len(cyc))}

    ring = [equatorial[0]]
    remaining = equatorial[1:]
    while remaining:
        cur = edge_set(ring[-1])
        nxt = next(f for f in remaining if cur & edge_set(f))
        ring.append(nxt)
        remaining.remove(nxt)

    # rotate each hexagon so positions 0..2 are on the A side
    arcs = []
    for cyc in ring:
        k = len(cyc)
        start = next(
            i for i in range(k) if a_side(cyc[i]) and not a_side(cyc[i - 1])
        )
        rot = tuple(cyc[(start + i) % k] for i in range(k))
        if not all(a_side(x) for x in rot[:3]) or any(a_side(x) for x in rot[3:]):
            raise InvariantError("belt hexagon does not split into two half-arcs")
        arcs.append((rot[:3], rot[3:]))
    if arcs[0][0][2] != arcs[1][0][0]:
        arcs = [arcs[0]] + arcs[:0:-1]
    for i in range(6):
        a_cur, b_cur = arcs[i]
        a_next, b_next = arcs[(i + 1) % 6]
        if a_cur[2] != a_next[0] or b_next[2] != b_cur[0]:
            raise InvariantError("belt half-arcs do not chain around the equator")

    new_hexes = [arcs[i][0] + arcs[(i + shift) % 6][1] for i in range(6)]
    return caps + new_hexes


def twisted_chamfered_cube() -> PlaneGraph:
    return PlaneGraph.from_faces(_twisted_faces(1))


_PRISM_RE = re.compile(r"^prism\((\d+)\)$")

_NAMED = {
    "cube": cube,
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "truncated_tetrahedron": truncated_tetrahedron,
    "truncated_octahedron": truncated_octahedron,
    "chamfered_cube": chamfered_cube,
    "twisted_chamfered_cube": twisted_chamfered_cube,
}


def named_graph_names() -> list[str]:
    """The fixed names that make_named accepts; prism(K) comes besides."""
    return sorted(_NAMED)


def make_named(name: str) -> PlaneGraph:
    """Construct a graph by name; 'prism(k)' takes the literal k, e.g. prism(6)."""
    key = name.strip().lower()
    m = _PRISM_RE.match(key)
    if m:
        return prism(int(m.group(1)))
    try:
        return _NAMED[key]()
    except KeyError:
        raise ValueError(
            f"unknown graph name {name!r}; choose from"
            f" {', '.join(named_graph_names())} or prism(K) with K >= 3"
        ) from None
