from __future__ import annotations

import pytest

from hexcube import (
    OddFaceError,
    PlaneGraph,
    Zone,
    all_pairs_distances,
    canonical_code,
    theta_classes,
    trace_zones,
    zone_clean,
    zone_report,
)


def edge_based_self_intersection(g: PlaneGraph, zone: Zone) -> bool:
    """Edge-based self-intersection: some face keeps more than one of its
    opposite-edge pairs inside the zone.

    Equivalent to the face-based flag because every visit to a face enters
    and leaves through one full opposite pair; asserted equal below.
    """
    for f in g.faces:
        if sum(1 for d in f if d >> 1 in zone.edges) > 2:
            return True
    return False


def face_isometric(g: PlaneGraph) -> bool:
    """Do shortest paths between vertices of any face stay on that face?"""
    dist = all_pairs_distances(g)
    for f in g.faces:
        vs = [g.vertex_of[d] for d in f]
        s = len(vs)
        for i in range(s):
            for j in range(i + 1, s):
                arc = min(j - i, s - (j - i))
                if dist[vs[i], vs[j]] != arc:
                    return False
    return True


def test_opposite_edge_odd_face(named_graphs):
    with pytest.raises(OddFaceError):
        trace_zones(named_graphs["tetrahedron"])


def test_zone_counts(named_graphs):
    expected = {
        "cube": 3,
        "prism(6)": 4,
        "truncated_octahedron": 6,
        "chamfered_cube": 7,
        "twisted_chamfered_cube": 7,
    }
    for name, k in expected.items():
        zones = trace_zones(named_graphs[name])
        assert len(zones) == k, name
        assert zone_clean(named_graphs[name])
    assert [z.length for z in trace_zones(named_graphs["cube"])] == [4, 4, 4]


def test_zone_edges_partition(named_graphs, gen4_24):
    graphs = [named_graphs[n] for n in ("cube", "prism(6)", "chamfered_cube")]
    graphs += gen4_24.graphs
    for g in graphs:
        zones = trace_zones(g)
        counted = sum(len(z.edges) for z in zones)
        union = set().union(*(z.edges for z in zones))
        assert counted == g.n_edges == len(union)


def test_zones_match_theta_classes_on_embeddable(named_graphs):
    for name in (
        "cube",
        "prism(6)",
        "truncated_octahedron",
        "chamfered_cube",
        "twisted_chamfered_cube",
    ):
        g = named_graphs[name]
        zsets = {z.edges for z in trace_zones(g)}
        class_of = theta_classes(g).class_of
        tsets = {
            frozenset(e for e, c in enumerate(class_of) if c == k)
            for k in set(class_of)
        }
        assert zsets == tsets, name


def test_self_intersection_definitions_agree(gen4_24):
    from hexcube import goldberg_coxeter_cube

    graphs = gen4_24.graphs + [goldberg_coxeter_cube(2, 1)]
    flagged = 0
    for g in graphs:
        for z in trace_zones(g):
            face_based = z.self_intersecting
            assert face_based == edge_based_self_intersection(g, z)
            flagged += face_based
    assert flagged > 0  # the corpus genuinely exercises both outcomes


def test_zone_clean_only_for_survivors_at_small_n(gen4_24, named_graphs):
    survivors = {
        canonical_code(named_graphs["cube"]),
        canonical_code(named_graphs["prism(6)"]),
        canonical_code(named_graphs["truncated_octahedron"]),
    }
    for g in gen4_24.graphs:
        assert zone_clean(g) == (canonical_code(g) in survivors)


def test_face_isometric_on_embeddable(named_graphs):
    for name in ("cube", "prism(6)", "truncated_octahedron", "chamfered_cube"):
        assert face_isometric(named_graphs[name])


def test_zone_report_shape(named_graphs):
    rep = zone_report(named_graphs["chamfered_cube"])
    assert rep["zone_count"] == 7
    assert len(rep["lengths"]) == 7
    assert rep["self_intersecting_flags"] == [False] * 7
