"""Zones: closed circuits of faces glued along opposite edges.

Zones are defined for plane graphs whose faces all have even size.  The
circuit through an edge enters a face, leaves through the opposite edge,
and continues on the other side of that edge; ``trace_zones`` is the one
place that steps to the opposite edge.  A zone is self-intersecting when it
visits some face more than once.  Zone edge sets partition the edges, and
on the hypercube-embeddable graphs they coincide with the edge classes,
which is what makes zone cleanliness a fast necessary filter for
embeddability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane_graph import PlaneGraph


class OddFaceError(ValueError):
    """Opposite edges only exist on even faces."""


@dataclass(frozen=True)
class Zone:
    """crossings: cyclic (face index, edge index) pairs in traversal order."""

    crossings: tuple[tuple[int, int], ...]
    edges: frozenset[int]
    self_intersecting: bool

    @property
    def length(self) -> int:
        return len(self.crossings)


def trace_zones(g: PlaneGraph) -> tuple[Zone, ...]:
    """All zones, each traced once, the one through the least unvisited edge
    first.  A traversal and its reverse are the same zone."""
    faces = g.faces
    for f in faces:
        if len(f) % 2 != 0:
            raise OddFaceError("zones need all faces even")
    face_of = g.face_of_dart
    # position of each dart inside its face, for O(1) opposite-dart steps
    pos_in_face = [0] * g.dart_count
    for f in faces:
        for i, d in enumerate(f):
            pos_in_face[d] = i

    def step(d: int) -> int:
        f = faces[face_of[d]]
        opp = f[(pos_in_face[d] + len(f) // 2) % len(f)]
        return opp ^ 1

    visited = [False] * g.n_edges
    zones = []
    for e in range(g.n_edges):
        if visited[e]:
            continue
        start = 2 * e
        crossings = []
        d = start
        while True:
            crossings.append((face_of[d], d >> 1))
            visited[d >> 1] = True
            d = step(d)
            if d == start:
                break
        edges = frozenset(ei for _, ei in crossings)
        face_list = [fi for fi, _ in crossings]
        zones.append(
            Zone(
                crossings=tuple(crossings),
                edges=edges,
                self_intersecting=len(set(face_list)) < len(face_list),
            )
        )
    return tuple(zones)


def zone_clean(g: PlaneGraph) -> bool:
    """True iff no zone visits a face twice.

    Opposite edges of an embedded even face carry the same edge class and a
    class cannot appear twice on one face, so a self-intersection rules out
    any isometric hypercube embedding: this predicate is a necessary filter.
    """
    return not any(z.self_intersecting for z in trace_zones(g))


def zone_report(g: PlaneGraph) -> dict:
    zones = trace_zones(g)
    return {
        "zone_count": len(zones),
        "lengths": [z.length for z in zones],
        "self_intersecting_flags": [z.self_intersecting for z in zones],
    }
