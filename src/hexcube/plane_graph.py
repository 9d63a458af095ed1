"""Rotation-system (combinatorial map) model of connected simple plane graphs.

Darts are dense 0-based integers.  Dart ``d`` and ``d ^ 1`` are the two
oriented sides of edge ``d >> 1``, so the edge-reversal involution alpha
never needs to be stored.  ``sigma[d]`` is the next dart counterclockwise
around the vertex of ``d``; faces are the orbits of ``d -> sigma[d ^ 1]``,
traced with the face interior on the left.  A face is the tuple of its
darts in that order, so its size is its length and the edges along it are
``d >> 1`` for its darts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np


class MapError(ValueError):
    """The input does not describe a simple connected genus-0 map."""


def sigma_inverse(sigma: Sequence[int]) -> tuple[int, ...]:
    """The inverse rotation: the next dart clockwise around each vertex."""
    inv = [0] * len(sigma)
    for d, s in enumerate(sigma):
        inv[s] = d
    return tuple(inv)


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of a connected graph, or an odd-cycle witness."""

    coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.coloring is not None


@dataclass(frozen=True)
class PlaneGraph:
    """Immutable plane graph given by its rotation system.

    sigma     -- permutation of darts, counterclockwise successor at each vertex
    vertex_of -- dart -> vertex index (dense, 0-based)

    Construction validates everything: sigma is a permutation whose orbits
    are exactly the dart groups of each vertex, alpha (= xor 1) is
    fixed-point free, the map is connected, simple (no loops or parallel
    edges) and has Euler characteristic 2.
    """

    sigma: tuple[int, ...]
    vertex_of: tuple[int, ...]

    def __post_init__(self) -> None:
        sigma, vertex_of = self.sigma, self.vertex_of
        nd = len(sigma)
        if nd == 0 or nd % 2 != 0 or len(vertex_of) != nd:
            raise MapError("dart count must be positive, even and match vertex_of")
        if sorted(sigma) != list(range(nd)):
            raise MapError("sigma is not a permutation of the darts")
        n = max(vertex_of) + 1
        if sorted(set(vertex_of)) != list(range(n)):
            raise MapError("vertex indices must be dense 0-based integers")
        for d in range(nd):
            if vertex_of[sigma[d]] != vertex_of[d]:
                raise MapError("sigma moves a dart to a different vertex")
            if vertex_of[d] == vertex_of[d ^ 1]:
                raise MapError("loops are not supported")
        # each vertex must be a single sigma-cycle
        seen = [False] * nd
        cycles = 0
        for d in range(nd):
            if not seen[d]:
                cycles += 1
                while not seen[d]:
                    seen[d] = True
                    d = sigma[d]
        if cycles != n:
            raise MapError("some vertex has more than one rotation cycle")
        pairs = set()
        for e in range(nd // 2):
            u, v = vertex_of[2 * e], vertex_of[2 * e + 1]
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise MapError("parallel edges are not supported")
            pairs.add(pair)
        # connectivity under <sigma, alpha>
        reached = [False] * nd
        stack = [0]
        reached[0] = True
        count = 1
        while stack:
            d = stack.pop()
            for e in (sigma[d], d ^ 1):
                if not reached[e]:
                    reached[e] = True
                    count += 1
                    stack.append(e)
        if count != nd:
            raise MapError("map is not connected")
        if n - nd // 2 + len(self.faces) != 2:
            raise MapError("map is not of genus 0")

    # -- basic counts ------------------------------------------------------

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def n_vertices(self) -> int:
        return max(self.vertex_of) + 1

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    # -- derived structure (cached, instances are immutable) ---------------

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of d -> sigma[d ^ 1], each rotated to start at its least dart."""
        sigma = self.sigma
        nd = len(sigma)
        seen = [False] * nd
        out = []
        for d0 in range(nd):
            if seen[d0]:
                continue
            cyc = []
            d = d0
            while not seen[d]:
                seen[d] = True
                cyc.append(d)
                d = sigma[d ^ 1]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def face_of_dart(self) -> tuple[int, ...]:
        idx = [0] * self.dart_count
        for i, f in enumerate(self.faces):
            for d in f:
                idx[d] = i
        return tuple(idx)

    @cached_property
    def darts_at(self) -> tuple[tuple[int, ...], ...]:
        """Darts of each vertex in rotation order, starting at the least dart."""
        starts = [None] * self.n_vertices
        for d in range(self.dart_count):
            v = self.vertex_of[d]
            if starts[v] is None:
                starts[v] = d
        out = []
        for v, d0 in enumerate(starts):
            cyc = [d0]
            d = self.sigma[d0]
            while d != d0:
                cyc.append(d)
                d = self.sigma[d]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.vertex_of[d ^ 1] for d in darts) for darts in self.darts_at
        )

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        return self.vertex_of[2 * e], self.vertex_of[2 * e + 1]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rotations(cls, neighbors: Sequence[Sequence[int]]) -> "PlaneGraph":
        """Build from counterclockwise neighbor lists (simple graphs only)."""
        edge_ids: dict[tuple[int, int], int] = {}
        darts_of: dict[tuple[int, int], int] = {}
        for v, nbrs in enumerate(neighbors):
            if len(set(nbrs)) != len(nbrs):
                raise MapError(f"vertex {v}: repeated neighbor (parallel edge)")
            for w in nbrs:
                if w == v:
                    raise MapError(f"vertex {v}: loop")
                if not 0 <= w < len(neighbors):
                    raise MapError(f"vertex {v}: neighbor {w} out of range")
                key = (v, w) if v < w else (w, v)
                if key not in edge_ids:
                    e = len(edge_ids)
                    edge_ids[key] = e
                    darts_of[(v, w)] = 2 * e
                    darts_of[(w, v)] = 2 * e + 1
        nd = 2 * len(edge_ids)
        sigma = [0] * nd
        vertex_of = [0] * nd
        for v, nbrs in enumerate(neighbors):
            if not nbrs:
                raise MapError(f"vertex {v} is isolated")
            ds = [darts_of[(v, w)] for w in nbrs]
            for i, d in enumerate(ds):
                sigma[d] = ds[(i + 1) % len(ds)]
                vertex_of[d] = v
        for (u, w) in edge_ids:
            if w not in neighbors[u] or u not in neighbors[w]:
                raise MapError(f"edge {u}-{w} is not listed at both endpoints")
        return cls(sigma=tuple(sigma), vertex_of=tuple(vertex_of))

    @classmethod
    def from_faces(cls, face_cycles: Iterable[Sequence[Hashable]]) -> "PlaneGraph":
        """Build from face boundary cycles with consistent orientation.

        Labels may be any hashables; they are densified in order of first
        appearance.  Every directed edge must occur exactly once over all
        cycles (each undirected edge once per direction).
        """
        ids: dict[Hashable, int] = {}
        cycles: list[list[int]] = []
        for cyc in face_cycles:
            row = []
            for lab in cyc:
                if lab not in ids:
                    ids[lab] = len(ids)
                row.append(ids[lab])
            cycles.append(row)
        succ: dict[tuple[int, int], tuple[int, int]] = {}
        for cyc in cycles:
            k = len(cyc)
            if k < 2:
                raise MapError("face cycles need at least two vertices")
            for i in range(k):
                u, v = cyc[i], cyc[(i + 1) % k]
                if u == v:
                    raise MapError("loop in face cycle")
                if (u, v) in succ:
                    raise MapError(f"directed edge {u}->{v} occurs twice")
                succ[(u, v)] = (v, cyc[(i + 2) % k])
        edge_ids: dict[tuple[int, int], int] = {}
        dart_of: dict[tuple[int, int], int] = {}
        for (u, v) in succ:
            if (v, u) not in succ:
                raise MapError(f"directed edge {v}->{u} is missing")
            key = (u, v) if u < v else (v, u)
            if key not in edge_ids:
                e = len(edge_ids)
                edge_ids[key] = e
                dart_of[key] = 2 * e
        def dart(u: int, v: int) -> int:
            key = (u, v) if u < v else (v, u)
            d = dart_of[key]
            return d if (u, v) == key else d ^ 1
        nd = 2 * len(edge_ids)
        sigma = [0] * nd
        vertex_of = [0] * nd
        for (u, v), (x, w) in succ.items():
            # face successor of dart (u,v) is (v,w); sigma = succ o alpha
            sigma[dart(v, u)] = dart(v, w)
            vertex_of[dart(u, v)] = u
        return cls(sigma=tuple(sigma), vertex_of=tuple(vertex_of))


# -- face-level predicates ----------------------------------------------


def face_vector(g: PlaneGraph) -> Counter:
    """Multiset of face sizes, e.g. Counter({4: 6}) for the cube."""
    return Counter(map(len, g.faces))


def is_three_valent(g: PlaneGraph) -> bool:
    return all(len(d) == 3 for d in g.darts_at)


def is_q6(g: PlaneGraph, q: int) -> bool:
    """True iff g is 3-valent and every face is a q-gon or a 6-gon.

    Connectivity holds for every PlaneGraph by construction, so this is a
    total predicate on valid maps.
    """
    return is_three_valent(g) and all(len(f) in (q, 6) for f in g.faces)


# -- metric ---------------------------------------------------------------


def all_pairs_distances(g: PlaneGraph) -> np.ndarray:
    """Hop distances between all vertex pairs, by growing every ball at once.

    Row v of the boolean array ``ball`` is the ball of radius d around v.
    A vertex lies within d + 1 of v exactly when it is v or lies within d
    of a neighbour of v, so

        ball_{d+1}[v] = ball_d[v] | OR over neighbours w of v of ball_d[w],

    and dist[v, s] is the number of radii d >= 0 at which s is not yet in
    ball_d[v].  Each step gathers whole contiguous rows, the neighbours'
    balls; since d(v, s) = d(s, v), row v is at once the distances from v
    and to v, so the matrix is the same whichever index is the source.
    The neighbour table is padded with the vertex itself, whose own ball
    is already in the union, so mixed degrees need no mask.  No distance
    reaches n, so the count is kept in the narrowest unsigned dtype that
    holds n and widened to int32 once at the end.
    """
    n = g.n_vertices
    nbrs = g.neighbors
    width = max(len(ws) for ws in nbrs)
    table = np.array(
        [ws + (v,) * (width - len(ws)) for v, ws in enumerate(nbrs)], dtype=np.intp
    )
    dist = np.zeros((n, n), dtype=np.min_scalar_type(n))
    ball = np.eye(n, dtype=bool)
    while not ball.all():
        dist += ~ball
        grown = ball | ball[table[:, 0]]
        for j in range(1, width):
            grown |= ball[table[:, j]]
        ball = grown
    return dist.astype(np.int32)


def bipartition(g: PlaneGraph) -> Bipartition:
    """Two-color the graph, or return an odd cycle as witness."""
    n = g.n_vertices
    color = [-1] * n
    parent = [-1] * n
    color[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for w in g.neighbors[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    nxt.append(w)
                elif color[w] == color[u]:
                    # climb to the common ancestor for an explicit odd cycle
                    pu, pw = [u], [w]
                    seen = {u: 0}
                    x = u
                    while parent[x] >= 0:
                        x = parent[x]
                        seen[x] = len(pu)
                        pu.append(x)
                    x = w
                    while x not in seen:
                        x = parent[x]
                        pw.append(x)
                    cycle = pu[: seen[pw[-1]] + 1] + pw[-2::-1]
                    return Bipartition(coloring=None, odd_cycle=tuple(cycle))
        queue = nxt
    return Bipartition(coloring=tuple(color), odd_cycle=None)


def is_three_connected(g: PlaneGraph) -> bool:
    """3-connectivity read off the faces, in O(sum of squared degrees).

    A connected plane graph on n >= 3 vertices is 2-connected iff every
    face boundary is a cycle, i.e. no face passes a vertex twice (Diestel,
    *Graph Theory*, section 4.2).  A 2-connected plane graph on n >= 4
    vertices is 3-connected iff any two distinct faces share no vertex,
    one vertex, or exactly the two ends of one common edge: two faces
    meeting at u and v without sharing the edge uv give a closed curve
    through both faces that {u, v} cuts, and conversely a 2-cut {u, v}
    always leaves two faces at u that meet at v without sharing uv.
    """
    if g.n_vertices < 4:
        return False
    face_of = g.face_of_dart
    shared: Counter = Counter()
    for darts in g.darts_at:
        around = sorted(face_of[d] for d in darts)
        if len(set(around)) != len(around):
            return False  # a face passes this vertex twice: a cut vertex
        for i, f in enumerate(around):
            for h in around[i + 1 :]:
                shared[f, h] += 1
    across = set()
    for e in range(g.n_edges):
        f, h = face_of[2 * e], face_of[2 * e + 1]
        across.add((f, h) if f < h else (h, f))
    return all(k == 1 or (k == 2 and pair in across) for pair, k in shared.items())


# -- map surgeries --------------------------------------------------------


def mirror(g: PlaneGraph) -> PlaneGraph:
    """The reflected map (rotations reversed)."""
    return PlaneGraph(sigma=sigma_inverse(g.sigma), vertex_of=g.vertex_of)


def dual(g: PlaneGraph) -> PlaneGraph:
    """Planar dual on the same darts (vertices become faces and vice versa).

    Raises MapError when the dual is not simple.
    """
    sigma = tuple(g.sigma[d ^ 1] for d in range(g.dart_count))
    return PlaneGraph(sigma=sigma, vertex_of=g.face_of_dart)


def truncate(g: PlaneGraph) -> PlaneGraph:
    """Cut every vertex: darts of g become vertices, each original vertex a
    polygon and each s-gonal face a 2s-gon."""
    inv = sigma_inverse(g.sigma)
    cycles: list[list[int]] = []
    for darts in g.darts_at:
        d0 = darts[0]
        cyc = [d0]
        d = inv[d0]
        while d != d0:
            cyc.append(d)
            d = inv[d]
        cycles.append(cyc)
    for f in g.faces:
        cyc = []
        for d in f:
            cyc.append(d)
            cyc.append(d ^ 1)
        cycles.append(cyc)
    return PlaneGraph.from_faces(cycles)
