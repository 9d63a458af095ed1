from __future__ import annotations

import numpy as np
import pytest

from hexcube import (
    MapError,
    PlaneGraph,
    all_pairs_distances,
    bipartition,
    dual,
    face_vector,
    is_q6,
    is_three_connected,
    is_three_valent,
    make_named,
    mirror,
    named_graph_names,
    truncate,
)
from hexcube.named import prism
from oracles import enumerate_rotation_maps

PATH3 = [[1], [0, 2], [1, 3], [2]]


def test_cube_basics(named_graphs):
    g = named_graphs["cube"]
    assert g.n_vertices == 8
    assert g.n_edges == 12
    assert face_vector(g) == {4: 6}
    assert is_q6(g, 4) and not is_q6(g, 5)
    assert is_three_valent(g)
    assert all_pairs_distances(g).max() == 3


def test_prism6_faces_and_diameter(named_graphs):
    g = named_graphs["prism(6)"]
    assert g.n_vertices == 12
    assert face_vector(g) == {4: 6, 6: 2}
    # farthest pair: a bottom vertex and the top vertex half way around
    assert all_pairs_distances(g).max() == 4


def test_single_edge_distances():
    g = PlaneGraph(sigma=(0, 1), vertex_of=(0, 1))
    assert np.array_equal(all_pairs_distances(g), [[0, 1], [1, 0]])


def test_faces_partition_darts(named_graphs):
    for g in named_graphs.values():
        assert sum(map(len, g.faces)) == g.dart_count
        seen = set()
        for f in g.faces:
            assert seen.isdisjoint(f)
            seen.update(f)
        assert g.n_vertices - g.n_edges + len(g.faces) == 2


def test_every_square_hex_graph_has_six_squares(gen4_16):
    for g in gen4_16.graphs:
        assert face_vector(g)[4] == 6
        assert 2 * g.n_edges == 3 * g.n_vertices


def test_bipartition_coloring_and_witness(named_graphs):
    for name in ("cube", "prism(6)", "chamfered_cube"):
        g = named_graphs[name]
        bip = bipartition(g)
        assert bip
        colors = bip.coloring
        for e in range(g.n_edges):
            u, v = g.edge_endpoints(e)
            assert colors[u] != colors[v]
    bip = bipartition(named_graphs["tetrahedron"])
    assert not bip
    assert len(bip.odd_cycle) % 2 == 1
    cyc = bip.odd_cycle
    g = named_graphs["tetrahedron"]
    for i, u in enumerate(cyc):
        assert cyc[(i + 1) % len(cyc)] in g.neighbors[u]


def test_even_cycle_is_bipartite():
    c6 = PlaneGraph.from_rotations([[5, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]])
    assert bipartition(c6)


def test_malformed_maps_rejected():
    with pytest.raises(MapError):
        PlaneGraph(sigma=(0, 0), vertex_of=(0, 1))  # not a permutation
    with pytest.raises(MapError):
        PlaneGraph(sigma=(0, 1, 2, 3), vertex_of=(0, 1, 2, 3))  # disconnected
    with pytest.raises(MapError):
        PlaneGraph(sigma=(1, 0), vertex_of=(0, 0))  # loop
    with pytest.raises(MapError):
        PlaneGraph.from_rotations([[1, 1], [0, 0]])  # parallel edge
    with pytest.raises(MapError, match="not listed at both endpoints"):
        PlaneGraph.from_rotations([[1, 2], [0, 2], [1]])  # 0-2 missing at 2
    with pytest.raises(MapError, match="out of range"):
        PlaneGraph.from_rotations([[5], [0]])  # no vertex 5
    with pytest.raises(MapError):
        # K4 with one rotation flipped embeds on the torus, not the sphere
        PlaneGraph.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 1, 2]])


def test_from_faces_rejects_inconsistency():
    with pytest.raises(MapError):
        PlaneGraph.from_faces([(0, 1, 2), (0, 1, 2)])  # repeated directed edge
    with pytest.raises(MapError):
        PlaneGraph.from_faces([(0, 1, 2)])  # reverse edges missing


def test_dual_of_cube_is_octahedron(named_graphs):
    d = dual(named_graphs["cube"])
    assert d.n_vertices == 6
    assert face_vector(d) == {3: 8}
    dd = dual(d)
    assert face_vector(dd) == face_vector(named_graphs["cube"])


def test_truncate_tetrahedron(named_graphs):
    t = truncate(named_graphs["tetrahedron"])
    assert t.n_vertices == 12
    assert face_vector(t) == {3: 4, 6: 4}
    assert is_q6(t, 3)


def test_mirror_preserves_faces(named_graphs):
    for g in named_graphs.values():
        m = mirror(g)
        assert face_vector(m) == face_vector(g)
        assert mirror(m).sigma == g.sigma


def test_three_connectivity(named_graphs, gen3_20):
    assert is_three_connected(named_graphs["cube"])
    assert is_three_connected(named_graphs["tetrahedron"])
    g38 = next(g for g in gen3_20.graphs if g.n_vertices == 8)
    assert not is_three_connected(g38)


def test_path_graph_tree_face():
    g = PlaneGraph.from_rotations(PATH3)
    assert len(g.faces) == 1
    assert len(g.faces[0]) == 2 * g.n_edges


def node_connectivity_at_least_3(g: PlaneGraph) -> bool:
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    G.add_edges_from(g.edge_endpoints(e) for e in range(g.n_edges))
    return nx.node_connectivity(G) >= 3


def networkx_distances(g: PlaneGraph) -> np.ndarray:
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    G.add_edges_from(g.edge_endpoints(e) for e in range(g.n_edges))
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    n = g.n_vertices
    return np.array([[lengths[u][v] for v in range(n)] for u in range(n)])


def test_all_pairs_distances_match_networkx(gc_cubes, large_gc_cubes):
    """The ball growth agrees with networkx on the named graphs, graphs of
    mixed degree (a star and a path, whose neighbour tables are padded),
    prisms, the Goldberg-Coxeter cubes up to n=104, and GC(3,3) and
    GC(4,2) relabelled."""
    graphs = [make_named(name) for name in named_graph_names() if "(" not in name]
    graphs += [
        PlaneGraph(sigma=(0, 1), vertex_of=(0, 1)),
        PlaneGraph.from_rotations([[1, 2, 3, 4], [0], [0], [0], [0]]),
        PlaneGraph.from_rotations(PATH3),
    ]
    graphs += [prism(k) for k in range(3, 9)]
    graphs += gc_cubes + large_gc_cubes
    for g in graphs:
        dist = all_pairs_distances(g)
        assert dist.dtype == np.int32
        assert np.array_equal(dist, networkx_distances(g))


def test_three_connectivity_matches_networkx(gen3_20, gc_cubes):
    """The face rule agrees with networkx's vertex connectivity on named
    graphs, prisms, every small rotation map with its dual and truncation,
    the q=3 graphs up to n=20 and the Goldberg-Coxeter cubes up to n=104."""
    graphs = [make_named(name) for name in named_graph_names() if "(" not in name]
    graphs += [prism(k) for k in range(3, 9)]
    for q, n_max in ((4, 16), (3, 14), (5, 20)):
        for g in enumerate_rotation_maps(q, n_max):
            graphs.append(g)
            for surgery in (dual, truncate):
                try:
                    graphs.append(surgery(g))
                except MapError:
                    pass  # the dual of a map with a 2-cut need not be simple
    graphs += gen3_20.graphs
    graphs += gc_cubes
    outcomes = [is_three_connected(g) for g in graphs]
    assert outcomes == [node_connectivity_at_least_3(g) for g in graphs]
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(PlaneGraph(sigma=(0, 1), vertex_of=(0, 1)), id="edge"),
        pytest.param(PlaneGraph.from_rotations(PATH3), id="path"),
        # two triangles sharing vertex 0: a cut vertex
        pytest.param(
            PlaneGraph.from_rotations([[1, 2, 3, 4], [0, 2], [0, 1], [0, 4], [0, 3]]),
            id="bowtie",
        ),
        # two squares side by side: {1, 4} is a 2-cut through the middle edge
        pytest.param(
            PlaneGraph.from_faces([(0, 3, 4, 1), (1, 4, 5, 2), (0, 1, 2, 5, 4, 3)]),
            id="grid2x1",
        ),
        # K_{2,3}: any two faces share the 2-cut {0, 1} and a third vertex
        pytest.param(
            PlaneGraph.from_faces([(0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 2)]),
            id="k23",
        ),
        # two diamonds glued at the ends u=0, v=1 of their missing edges: the
        # quadrilaterals (0, 3, 1, 4) and (0, 5, 1, 2) share exactly {0, 1}
        pytest.param(
            PlaneGraph.from_faces(
                [(0, 2, 3), (1, 3, 2), (0, 3, 1, 4), (0, 4, 5), (1, 5, 4), (0, 5, 1, 2)]
            ),
            id="two_diamonds",
        ),
    ],
)
def test_three_connectivity_negative_cases(g):
    assert not node_connectivity_at_least_3(g)
    assert not is_three_connected(g)
