"""Goldberg-Coxeter subdivision of the cube.

The dual of the cube is the octahedron; each octahedron triangle is
overlaid with the (k,l) patch of the triangular lattice and the eight
patches are glued back into a sphere triangulation whose dual is the
subdivided cubic graph on 8*(k^2 + k*l + l^2) vertices.

All geometry is exact integer arithmetic in lattice coordinates (a, b)
meaning a + b*w with w = exp(i*pi/3): rotation by 60 degrees maps (a, b)
to (-b, a+b), and orientation tests reduce to the determinant a1*b2-a2*b1.
The patch ("master triangle") of face F has corners 0, z, z*w with
z = (k, l).  Chart transitions are lattice isometries, so boundary points
and the unit triangles straddling a boundary can be identified exactly;
triangles are keyed by their centroid (tripled, to stay integral), which
is never a lattice point and therefore lies on at most one patch edge.
"""

from __future__ import annotations

from .embedding import InvariantError
from .named import OCTAHEDRON_FACES
from .plane_graph import PlaneGraph, dual, is_q6

Pt = tuple[int, int]


def _rot60(p: Pt) -> Pt:
    return (-p[1], p[0] + p[1])


def _rot(p: Pt, times: int) -> Pt:
    for _ in range(times % 6):
        p = _rot60(p)
    return p


def _sub(p: Pt, q: Pt) -> Pt:
    return (p[0] - q[0], p[1] - q[1])


def _cross(p: Pt, q: Pt) -> int:
    return p[0] * q[1] - p[1] * q[0]


class _Glue:
    """Affine lattice map q -> rot(q) + shift between adjacent charts."""

    def __init__(self, rot: int, shift: Pt, face: int) -> None:
        self.rot = rot
        self.shift = shift
        self.face = face

    def apply(self, p: Pt, scaled: int = 1) -> Pt:
        r = _rot(p, self.rot)
        return (r[0] + scaled * self.shift[0], r[1] + scaled * self.shift[1])


def goldberg_coxeter_cube(k: int, l: int) -> PlaneGraph:
    """The (k,l) Goldberg-Coxeter subdivision of the cube: a 3-valent plane
    graph with six squares, hexagons elsewhere, on 8*(k^2+kl+l^2) vertices.

    Requires k >= l >= 0 and k >= 1; (k,l) and (l,k) are mirror images.
    """
    if not (type(k) is int and type(l) is int):
        raise ValueError("k and l must be integers")
    if k < 1 or l < 0 or l > k:
        raise ValueError("parameters must satisfy k >= l >= 0 and k >= 1")
    t = k * k + k * l + l * l
    tri = _subdivided_octahedron(k, l)
    g = dual(tri)
    if not (is_q6(g, 4) and g.n_vertices == 8 * t):
        raise InvariantError(f"GC({k},{l}) is not a square/hexagon map on {8 * t} vertices")
    return g


def _subdivided_octahedron(k: int, l: int) -> PlaneGraph:
    z = (k, l)
    corners = ((0, 0), z, _rot60(z))
    corners3 = tuple((3 * p[0], 3 * p[1]) for p in corners)

    # which chart/side is glued to each directed octahedron edge
    side_of: dict[tuple[int, int], tuple[int, int]] = {}
    for fi, cyc in enumerate(OCTAHEDRON_FACES):
        for j in range(3):
            side_of[(cyc[j], cyc[(j + 1) % 3])] = (fi, j)

    glue: dict[tuple[int, int], _Glue] = {}
    for (u, v), (fi, j) in side_of.items():
        gi, jj = side_of[(v, u)]
        # this chart's side j, traversed P_j -> P_{j+1}, maps onto the
        # neighbor's side jj traversed Q_{jj+1} -> Q_{jj}
        p_from, p_to = corners[j], corners[(j + 1) % 3]
        q_to, q_from = corners[jj], corners[(jj + 1) % 3]
        want = _sub(q_to, q_from)
        vec = _sub(p_to, p_from)
        rot = next(r for r in range(6) if _rot(vec, r) == want)
        shift = _sub(q_from, _rot(p_from, rot))
        glue[(fi, j)] = _Glue(rot, shift, gi)

    def walk_home(fi: int, p: Pt) -> tuple[int, Pt]:
        for _ in range(64):
            j = _outside_side(p, corners)
            if j is None:
                return fi, p
            gl = glue[(fi, j)]
            fi, p = gl.face, gl.apply(p)
        raise InvariantError("chart walk did not terminate")

    def point_key(fi: int, p: Pt) -> tuple[int, Pt]:
        reps = {(fi, p)}
        queue = [(fi, p)]
        while queue:
            cf, cp = queue.pop()
            for j in range(3):
                if _on_side(cp, j, corners):
                    gl = glue[(cf, j)]
                    rep = (gl.face, gl.apply(cp))
                    if rep not in reps:
                        reps.add(rep)
                        queue.append(rep)
        return min(reps)

    # enumerate candidate unit triangles per chart, keyed by centroid
    lo_a = min(c[0] for c in corners) - 1
    hi_a = max(c[0] for c in corners) + 1
    lo_b = min(c[1] for c in corners) - 1
    hi_b = max(c[1] for c in corners) + 1
    units = []
    for a in range(lo_a, hi_a + 1):
        for b in range(lo_b, hi_b + 1):
            units.append((((a, b), (a + 1, b), (a, b + 1)), (3 * a + 1, 3 * b + 1)))
            units.append((((a + 1, b), (a + 1, b + 1), (a, b + 1)), (3 * a + 2, 3 * b + 2)))

    chosen: dict[tuple[int, Pt], tuple[int, tuple[Pt, Pt, Pt]]] = {}
    n_faces = len(OCTAHEDRON_FACES)
    for fi in range(n_faces):
        for tri, c3 in units:
            if _outside_side(c3, corners3) is not None:
                continue
            key = (fi, c3)
            j = next((j for j in range(3) if _on_side(c3, j, corners3)), None)
            if j is not None:
                gl = glue[(fi, j)]
                key = min(key, (gl.face, gl.apply(c3, scaled=3)))
            if key not in chosen:
                chosen[key] = (fi, tri)

    faces = [
        tuple(point_key(*walk_home(fi, p)) for p in tri) for fi, tri in chosen.values()
    ]
    return PlaneGraph.from_faces(faces)


def _outside_side(p: Pt, cs) -> int | None:
    """The first side j of the counterclockwise triangle cs (from cs[j] to
    cs[j+1]) that p lies strictly outside of, or None when p is in the
    closed triangle."""
    for j in range(3):
        if _cross(_sub(cs[(j + 1) % 3], cs[j]), _sub(p, cs[j])) < 0:
            return j
    return None


def _on_side(p: Pt, j: int, cs) -> bool:
    """Whether p lies on the closed segment from cs[j] to cs[j+1]."""
    a, b = cs[j], cs[(j + 1) % 3]
    d, w = _sub(b, a), _sub(p, a)
    if _cross(d, w) != 0:
        return False
    # parameter of p along a->b must lie in [0, 1]
    num, den = (w[0], d[0]) if d[0] != 0 else (w[1], d[1])
    if den < 0:
        num, den = -num, -den
    return 0 <= num <= den
