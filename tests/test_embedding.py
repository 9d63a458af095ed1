from __future__ import annotations

import itertools

import numpy as np
import pytest

import hexcube.embedding
import hexcube.reports
from hexcube import (
    FiveGonalWitness,
    HypercubeEmbedding,
    InvariantError,
    NonBipartiteError,
    PlaneGraph,
    ThetaClasses,
    Zone,
    all_pairs_distances,
    bipartition,
    check_graph,
    check_many,
    five_gonal_scan,
    is_five_gonal,
    recognize_partial_cube,
    reproduce_zone_computation,
    search_halfcube_embedding,
    search_scale_embedding,
    theta_classes,
    verify_scale_embedding,
)
from hexcube.named import prism
from hexcube.plane_graph import dual


def k23() -> PlaneGraph:
    return PlaneGraph.from_faces([(0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 2)])


def subdivided_k4() -> PlaneGraph:
    return PlaneGraph.from_faces(
        [(0, 4, 1, 5, 2, 6), (0, 7, 3, 8, 1, 4), (1, 8, 3, 9, 2, 5), (2, 9, 3, 7, 0, 6)]
    )


def test_theta_class_counts(named_graphs):
    assert theta_classes(named_graphs["cube"]).m == 3
    assert theta_classes(named_graphs["prism(6)"]).m == 4
    path = PlaneGraph.from_rotations([[1], [0, 2], [1, 3], [2]])
    th = theta_classes(path)
    assert th.m == 3 and len(set(th.class_of)) == 3


def test_theta_cube_classes_are_parallel_quadruples(named_graphs):
    th = theta_classes(named_graphs["cube"])
    sizes = sorted(th.class_of.count(c) for c in range(th.m))
    assert sizes == [4, 4, 4]


def test_theta_refuses_non_bipartite(monkeypatch, named_graphs):
    """Bipartiteness is read from the distance matrix, without a BFS of its own."""
    monkeypatch.setattr(hexcube.embedding, "bipartition", None)
    odd = ["tetrahedron", "truncated_tetrahedron", "octahedron", "icosahedron"]
    for g in [named_graphs[name] for name in odd] + [prism(3), prism(5)]:
        with pytest.raises(NonBipartiteError):
            theta_classes(g)
        with pytest.raises(NonBipartiteError):
            theta_classes(g, all_pairs_distances(g))


def directly_related(dist: np.ndarray, g: PlaneGraph, e: int, f: int) -> bool:
    x, y = g.edge_endpoints(e)
    u, v = g.edge_endpoints(f)
    return dist[x, u] + dist[y, v] != dist[x, v] + dist[y, u]


def theta_classes_oracle(g: PlaneGraph, dist: np.ndarray) -> ThetaClasses:
    """Union-find over every pair of edges, numbering classes by first edge;
    the first pair e < f of one class that is not directly related."""
    ne = g.n_edges
    parent = list(range(ne))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in range(ne):
        for f in range(e + 1, ne):
            if directly_related(dist, g, e, f):
                ri, rj = find(e), find(f)
                if ri != rj:
                    parent[ri] = rj
    labels: dict[int, int] = {}
    class_of = []
    for e in range(ne):
        class_of.append(labels.setdefault(find(e), len(labels)))
    intransitive = next(
        (
            (class_of[e], e, f)
            for e in range(ne)
            for f in range(e + 1, ne)
            if class_of[e] == class_of[f] and not directly_related(dist, g, e, f)
        ),
        None,
    )
    return ThetaClasses(class_of=tuple(class_of), m=len(labels), intransitive=intransitive)


def test_theta_classes_match_double_loop(named_graphs, gen4_24, gc_cubes, large_gc_cubes):
    graphs = list(gen4_24.graphs)
    graphs += [g for g in named_graphs.values() if bipartition(g)]
    graphs += [prism(4), prism(8), k23(), subdivided_k4()]
    graphs += gc_cubes + large_gc_cubes
    embeddable = []
    for g in graphs:
        dist = all_pairs_distances(g)
        theta = theta_classes(g, dist)
        assert theta == theta_classes_oracle(g, dist)
        assert all(type(c) is int for c in theta.class_of)
        embeddable.append(bool(recognize_partial_cube(g, dist)))
    assert True in embeddable and False in embeddable


def test_recognition_dimensions(named_graphs):
    expected = {
        "cube": 3,
        "prism(6)": 4,
        "truncated_octahedron": 6,
        "chamfered_cube": 7,
        "twisted_chamfered_cube": 7,
    }
    for name, m in expected.items():
        res = recognize_partial_cube(named_graphs[name])
        assert res and res.embedding.m == m
        ok, bad = verify_scale_embedding(named_graphs[name], res.embedding)
        assert ok and bad is None


def test_recognition_failures(named_graphs):
    res = recognize_partial_cube(named_graphs["truncated_tetrahedron"])
    assert not res and res.failure.kind == "odd_cycle"
    res = recognize_partial_cube(k23())
    assert not res and res.failure.kind == "intransitive_pair"


def test_intransitive_pair_certifies_every_bipartite_failure(gen4_48, gc_cubes):
    """Every bipartite graph that does not embed fails with a pair (c, e, f):
    two edges of class c that are not directly related, checked here on the
    distance matrix.  Winkler's criterion leaves no other failure."""
    graphs = list(gen4_48.graphs) + gc_cubes + [prism(k) for k in range(3, 13)] + [k23()]
    failures = 0
    for g in graphs:
        res = recognize_partial_cube(g)
        if res or not bipartition(g):
            continue
        failures += 1
        assert res.failure.kind == "intransitive_pair"
        c, e, f = res.failure.detail
        dist = all_pairs_distances(g)
        class_of = theta_classes(g, dist).class_of
        assert class_of[e] == class_of[f] == c and e != f
        assert not directly_related(dist, g, e, f)
    assert failures > 50


def test_even_prisms_need_one_extra_coordinate():
    # a 2m-gonal prism uses m directions around plus one across
    for k in (4, 6, 8, 10):
        res = recognize_partial_cube(prism(k))
        assert res and res.embedding.m == k // 2 + 1


def test_odd_prisms_fail_but_are_five_gonal():
    for k in (3, 5):
        g = prism(k)
        assert not recognize_partial_cube(g)
        assert is_five_gonal(all_pairs_distances(g))


def test_verify_scale_embedding_detects_perturbation(named_graphs):
    g = named_graphs["cube"]
    emb = recognize_partial_cube(g).embedding
    phi = list(emb.phi)
    phi[3] = phi[3] ^ frozenset({0, 1})
    bad_emb = HypercubeEmbedding(m=emb.m, scale=1, phi=tuple(phi))
    ok, pair = verify_scale_embedding(g, bad_emb)
    assert not ok and 3 in pair


def test_scale_search_builds_one_distance_matrix(monkeypatch, named_graphs):
    g = named_graphs["prism(6)"]
    dist = all_pairs_distances(g)
    calls = []

    def counted(h):
        calls.append(h)
        return dist

    monkeypatch.setattr(hexcube.embedding, "all_pairs_distances", counted)
    out = search_scale_embedding(g, 4, scale=1)
    assert out.status == "found" and calls == [g]
    assert verify_scale_embedding(g, out.embedding, dist) == (True, None)
    assert calls == [g]


def test_tetrahedron_halfcube_coordinates(named_graphs):
    g = named_graphs["tetrahedron"]
    for phi in (
        (frozenset(), frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
        (frozenset(), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})),
    ):
        m = 1 + max(max(s, default=0) for s in phi)
        emb = HypercubeEmbedding(m=m, scale=2, phi=phi)
        ok, _ = verify_scale_embedding(g, emb)
        assert ok


def test_five_gonal_trees_and_cube(named_graphs):
    path = PlaneGraph.from_rotations([[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]])
    assert five_gonal_scan(all_pairs_distances(path)) == []
    star = PlaneGraph.from_rotations([[1, 2, 3, 4], [0], [0], [0], [0]])
    assert five_gonal_scan(all_pairs_distances(star)) == []
    assert is_five_gonal(all_pairs_distances(named_graphs["cube"]))
    tiny = PlaneGraph(sigma=(0, 1), vertex_of=(0, 1))
    assert five_gonal_scan(all_pairs_distances(tiny)) == []


def test_truncated_tetrahedron_obstruction(named_graphs):
    g = named_graphs["truncated_tetrahedron"]
    dist = all_pairs_distances(g)
    assert dist.max() == 3
    witnesses = five_gonal_scan(dist)
    assert witnesses
    assert min(w.diameter for w in witnesses) == 3
    assert check_graph(g).t_obstruction == 3
    first = five_gonal_scan(dist, stop_at_first=True)
    assert first == [witnesses[0]]
    for w in witnesses:
        assert w.deficit < 0


def five_gonal_oracle(dist: np.ndarray) -> list[FiveGonalWitness]:
    """Every violated pentagonal inequality, subset by subset in ascending
    lexicographic order and split by split in ascending position order."""
    d = dist.tolist()
    out = []
    for combo in itertools.combinations(range(len(d)), 5):
        diameter = max(d[u][v] for u, v in itertools.combinations(combo, 2))
        for ia, ib in itertools.combinations(range(5), 2):
            a, b = combo[ia], combo[ib]
            x, y, z = (combo[k] for k in range(5) if k not in (ia, ib))
            lhs = d[a][b] + d[x][y] + d[x][z] + d[y][z]
            rhs = sum(d[s][t] for s in (a, b) for t in (x, y, z))
            if rhs < lhs:
                out.append(FiveGonalWitness(a, b, x, y, z, rhs - lhs, diameter))
    return out


def test_five_gonal_scan_chunks_match_oracle(monkeypatch, named_graphs):
    dist = all_pairs_distances(named_graphs["truncated_tetrahedron"])
    full = five_gonal_scan(dist)
    assert full == five_gonal_oracle(dist)
    monkeypatch.setattr(hexcube.embedding, "_FIRST_CHUNK", 1)
    monkeypatch.setattr(hexcube.embedding, "_CHUNK", 7)
    assert five_gonal_scan(dist) == full
    assert five_gonal_scan(dist, stop_at_first=True) == [full[0]]


def test_five_gonal_first_witness_on_chunk_boundary(monkeypatch, named_graphs):
    """The first chunk ends just before, or exactly at, the first witness."""
    dist = all_pairs_distances(named_graphs["truncated_tetrahedron"])
    full = five_gonal_oracle(dist)
    w = full[0]
    subsets = list(itertools.combinations(range(dist.shape[0]), 5))
    rank = subsets.index(tuple(sorted((w.a, w.b, w.x, w.y, w.z))))
    assert rank > 0
    monkeypatch.setattr(hexcube.embedding, "_CHUNK", 7)
    for first in (1, rank, rank + 1):
        monkeypatch.setattr(hexcube.embedding, "_FIRST_CHUNK", first)
        assert five_gonal_scan(dist, stop_at_first=True) == [w]
        assert five_gonal_scan(dist) == full


@pytest.mark.parametrize(
    "first, cap, n_max",
    # one-subset and seven-subset chunks split prefixes at every level; they
    # run on small n only, because each chunk costs a few numpy calls
    [(1, 1, 14), (1, 7, 20), (hexcube.embedding._FIRST_CHUNK, hexcube.embedding._CHUNK, 40)],
)
def test_five_subsets_match_combinations(monkeypatch, first, cap, n_max):
    """The chunks list the 5-subsets in itertools order, in chunks of the
    first size doubling up to the cap."""
    monkeypatch.setattr(hexcube.embedding, "_FIRST_CHUNK", first)
    monkeypatch.setattr(hexcube.embedding, "_CHUNK", cap)
    for n in range(5, n_max + 1):
        chunks = list(hexcube.embedding._five_subsets(n))
        want = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), 5)), dtype=np.intp
        ).reshape(-1, 5)
        assert np.array_equal(np.concatenate(chunks), want), n
        sizes = [first * 2**i for i in range(len(chunks))]
        sizes = [min(size, cap) for size in sizes]
        sizes[-1] = len(want) - sum(sizes[:-1])
        assert [len(c) for c in chunks] == sizes, n


def test_five_gonal_scan_widens_the_distance_dtype(named_graphs):
    """Distances of 12,000 overflow the narrow dtypes: 10 * max needs int32."""
    dist = all_pairs_distances(named_graphs["truncated_tetrahedron"]) * 4000
    full = five_gonal_oracle(dist)
    assert full and five_gonal_scan(dist) == full
    assert five_gonal_scan(dist, stop_at_first=True) == [full[0]]


def test_witness_deficit_matches_metric(named_graphs):
    dist = all_pairs_distances(named_graphs["truncated_tetrahedron"])
    w = five_gonal_scan(dist, stop_at_first=True)[0]
    lhs = dist[w.a, w.b] + dist[w.x, w.y] + dist[w.x, w.z] + dist[w.y, w.z]
    rhs = sum(dist[w.a, t] + dist[w.b, t] for t in (w.x, w.y, w.z))
    assert w.deficit == rhs - lhs


def test_cube_has_no_obstruction(named_graphs):
    assert check_graph(named_graphs["cube"]).t_obstruction is None


def test_dual_chamfered_cube_not_three_embeddable(named_graphs):
    d = dual(named_graphs["chamfered_cube"])
    t0 = check_graph(d).t_obstruction
    assert t0 is not None and t0 <= 3


def test_halfcube_search_tetrahedron(named_graphs):
    g = named_graphs["tetrahedron"]
    assert search_halfcube_embedding(g, 3).status == "found"
    assert search_halfcube_embedding(g, 4).status == "found"
    assert search_halfcube_embedding(g, 2).status == "none"
    with pytest.raises(ValueError):
        search_halfcube_embedding(g, 13)
    with pytest.raises(ValueError, match="m must be at least 0"):
        search_halfcube_embedding(g, -1)


def test_halfcube_search_icosahedron(named_graphs):
    out = search_halfcube_embedding(named_graphs["icosahedron"], 6)
    assert out.status == "found"
    assert out.embedding.m == 6 and out.embedding.scale == 2
    assert all(len(s) % 2 == 0 for s in out.embedding.phi)
    tiny = search_halfcube_embedding(named_graphs["icosahedron"], 6, node_budget=5)
    assert tiny.status == "inconclusive"


def test_scale1_search_agrees_with_recognizer(named_graphs):
    corpus = [
        named_graphs["cube"],
        named_graphs["prism(6)"],
        prism(8),
        k23(),
        subdivided_k4(),
        PlaneGraph.from_rotations([[1], [0, 2], [1, 3], [2]]),
    ]
    for g in corpus:
        res = recognize_partial_cube(g)
        m = theta_classes(g).m
        out = search_scale_embedding(g, m, scale=1)
        assert bool(res) == (out.status == "found")


def test_embedding_json_round_shape(named_graphs):
    emb = recognize_partial_cube(named_graphs["cube"]).embedding
    js = emb.to_json()
    assert js["m"] == 3 and js["scale"] == 1
    assert sorted(map(len, js["phi"])) == sorted(len(s) for s in emb.phi)


def test_invariant_error_on_contradicting_predicates(monkeypatch, named_graphs):
    """The cube embeds, so a 5-gonal witness, a self-intersecting zone or a
    failed verification (of the scale search or of the recognizer) can only
    come from a fault; each must raise."""
    cube = named_graphs["cube"]
    witness = FiveGonalWitness(a=0, b=1, x=2, y=3, z=4, deficit=-1, diameter=3)
    with monkeypatch.context() as m:
        m.setattr(hexcube.reports, "five_gonal_scan", lambda dist, stop_at_first=False: [witness])
        with pytest.raises(InvariantError, match="pentagonal"):
            check_graph(cube)
    with monkeypatch.context() as m:
        bad = Zone(crossings=(), edges=frozenset(), self_intersecting=True)
        m.setattr(hexcube.reports, "trace_zones", lambda g: (bad,))
        with pytest.raises(InvariantError, match="zone"):
            check_graph(cube)
    with monkeypatch.context() as m:
        m.setattr(
            hexcube.embedding, "verify_scale_embedding", lambda g, emb, dist=None: (False, (0, 1))
        )
        with pytest.raises(InvariantError, match="non-embedding"):
            search_scale_embedding(cube, 3, scale=1)
        with pytest.raises(InvariantError, match="non-embedding"):
            recognize_partial_cube(cube)


def test_check_graph_refuses_an_unknown_five_gonal_mode(named_graphs):
    with pytest.raises(ValueError, match="five_gonal"):
        check_graph(named_graphs["cube"], five_gonal="fist")


def test_reports_run_serially(named_graphs):
    with pytest.raises(ValueError, match="serially"):
        check_many([named_graphs["cube"]], threads=2)
    with pytest.raises(ValueError, match="serially"):
        reproduce_zone_computation(8, threads=2)
